// Metamorphic properties of the pruned extraction pipeline: inserting an
// obstacle can only shrink coverage, permuting devices only relabels it,
// and the pair-pruning counter is honest about when it engages.
package pdcs_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/hipotrace"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/power"
)

// omniScenario builds a scenario with one omnidirectional charger type, so
// every candidate position yields exactly one candidate (orientation-free)
// and positions are directly comparable across runs. The vertical wall
// splits the region; extraCross adds a horizontal wall through the middle
// that blocks many previously clear rays.
func omniScenario(extraCross bool) *model.Scenario {
	sc := &model.Scenario{
		Region: model.Region{Min: geom.V(0, 0), Max: geom.V(40, 40)},
		ChargerTypes: []model.ChargerType{
			{Name: "omni", Alpha: 2 * math.Pi, DMin: 1, DMax: 12, Count: 2},
		},
		DeviceTypes: []model.DeviceType{{Name: "d", Alpha: 2 * math.Pi, PTh: 0.05}},
		Power:       [][]model.PowerParams{{{A: 100, B: 40}}},
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 12; i++ {
		sc.Devices = append(sc.Devices, model.Device{
			Pos:  geom.V(5+30*rng.Float64(), 5+30*rng.Float64()),
			Type: 0,
		})
	}
	sc.Obstacles = []model.Obstacle{{Shape: geom.Rect(19, 8, 21, 32)}}
	if extraCross {
		sc.Obstacles = append(sc.Obstacles, model.Obstacle{Shape: geom.Rect(8, 19, 32, 21)})
	}
	return sc
}

// coverKey identifies a candidate by exact position and orientation bits.
func coverKey(c pdcs.Candidate) string {
	return fmt.Sprintf("%x/%x/%x/%d",
		math.Float64bits(c.S.Pos.X), math.Float64bits(c.S.Pos.Y),
		math.Float64bits(c.S.Orient), c.S.Type)
}

// TestMetamorphicObstacleInsertionMonotone checks that inserting an
// obstacle never grows coverage with the pruned pipeline: at every candidate
// position common to both runs, the covered device set with the extra
// obstacle is a subset of the one without, at identical power bits.
func TestMetamorphicObstacleInsertionMonotone(t *testing.T) {
	eps1 := power.Eps1ForEps(wallEps)
	cfg := pdcs.Config{Eps1: eps1, SkipDominanceFilter: true}
	base := extractWith(omniScenario(false), cfg)
	more := extractWith(omniScenario(true), cfg)

	covers := func(out [][]pdcs.Candidate) map[string]map[int]uint64 {
		m := map[string]map[int]uint64{}
		for _, cs := range out {
			for _, c := range cs {
				cov := map[int]uint64{}
				for _, dp := range c.Covers {
					cov[dp.Device] = math.Float64bits(dp.Power)
				}
				m[coverKey(c)] = cov
			}
		}
		return m
	}
	baseCov, moreCov := covers(base), covers(more)

	common, shrunk := 0, 0
	for k, cov := range moreCov {
		ref, ok := baseCov[k]
		if !ok {
			continue // position introduced by the new obstacle's ring cuts
		}
		common++
		for dev, pw := range cov {
			refPw, ok := ref[dev]
			if !ok {
				t.Fatalf("position %s: device %d covered only WITH the extra obstacle", k, dev)
			}
			if refPw != pw {
				t.Fatalf("position %s: device %d power changed bits under obstacle insertion", k, dev)
			}
		}
		if len(cov) < len(ref) {
			shrunk++
		}
	}
	if common == 0 {
		t.Fatal("no candidate positions shared between the two runs — the check is vacuous")
	}
	if shrunk == 0 {
		t.Fatal("extra cross obstacle blocked nothing — the scenario is not exercising occlusion")
	}
}

// TestMetamorphicDevicePermutationEquivariance reverses the device list and
// checks the pruned pipeline's raw coverage structure is unchanged up to
// relabeling: the same multiset of (position, type, covered original
// devices at identical power bits). The representative orientation is
// deliberately excluded from the key: when several boundary orientations
// attain the same coverage set, the sweep's first-wins dedup keeps the one
// reached first in device-index order (seed-faithful behavior), so φ is
// equivariant only up to that tie.
func TestMetamorphicDevicePermutationEquivariance(t *testing.T) {
	eps1 := power.Eps1ForEps(wallEps)
	cfg := pdcs.Config{Eps1: eps1, SkipDominanceFilter: true}
	sc := expt.BenchScenario(5, 8, 2)
	perm := sc.Clone()
	n := len(perm.Devices)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		perm.Devices[i], perm.Devices[j] = perm.Devices[j], perm.Devices[i]
	}

	multiset := func(out [][]pdcs.Candidate, unpermute bool) map[string]int {
		m := map[string]int{}
		for _, cs := range out {
			for _, c := range cs {
				type dv struct {
					dev int
					pw  uint64
				}
				cov := make([]dv, 0, len(c.Covers))
				for _, dp := range c.Covers {
					dev := dp.Device
					if unpermute {
						dev = n - 1 - dev
					}
					cov = append(cov, dv{dev, math.Float64bits(dp.Power)})
				}
				sort.Slice(cov, func(a, b int) bool { return cov[a].dev < cov[b].dev })
				// Quantize the position at the discretize.Dedup tolerance:
				// when several near-identical ring intersections fall in one
				// 1e-6 bucket, the deduper keeps whichever was generated
				// first, and generation order follows device order.
				m[fmt.Sprintf("%d/%d/%d|%v",
					int64(math.Round(c.S.Pos.X/1e-6)), int64(math.Round(c.S.Pos.Y/1e-6)), c.S.Type, cov)]++
			}
		}
		return m
	}
	orig := multiset(extractWith(sc, cfg), false)
	back := multiset(extractWith(perm, cfg), true)
	if len(orig) != len(back) {
		t.Fatalf("candidate multisets differ in size: %d vs %d", len(orig), len(back))
	}
	for k, cnt := range orig {
		if back[k] != cnt {
			t.Fatalf("candidate %s: count %d original vs %d permuted", k, cnt, back[k])
		}
	}
}

// TestPairsPrunedCounter checks the honesty of the pairs_pruned counter:
// zero when every device pair interacts (a tight cluster inside one grid
// neighborhood), positive on a spread-out field — where the pruned run must
// still match the seed pipeline bit for bit.
func TestPairsPrunedCounter(t *testing.T) {
	eps1 := power.Eps1ForEps(wallEps)

	cluster := omniScenario(false)
	cluster.Obstacles = nil
	for i := range cluster.Devices {
		// Everything within a radius-2 disk: 2·DMax dwarfs every pairwise
		// distance, so no pair may be pruned.
		theta := 2 * math.Pi * float64(i) / float64(len(cluster.Devices))
		cluster.Devices[i].Pos = geom.V(20, 20).Add(geom.FromAngle(theta).Scale(2))
	}
	tr := hipotrace.New()
	extractWith(cluster, pdcs.Config{Eps1: eps1, Tracer: tr})
	if got := tr.Breakdown().Counters["pairs_pruned"]; got != 0 {
		t.Fatalf("pairs_pruned = %d on an all-pairs-interacting cluster, want 0", got)
	}

	spread := omniScenario(false)
	spread.ChargerTypes[0].DMax = 4 // 2·DMax = 8 ≪ the 30-unit device spread
	tr = hipotrace.New()
	pruned := extractWith(spread, pdcs.Config{Eps1: eps1, Tracer: tr})
	if got := tr.Breakdown().Counters["pairs_pruned"]; got == 0 {
		t.Fatal("pairs_pruned = 0 on a spread-out field, pruning never engaged")
	}
	ref := reference(spread, eps1)
	if !candidatesBitIdentical(ref, pruned) {
		t.Fatal("pruned extraction diverged from seed pipeline on the spread field")
	}
}
