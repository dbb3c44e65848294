package expt

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"hipo/internal/discretize"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/power"
)

// ringScenario places six devices on a circle of radius 5 around (20,20),
// all facing the center, mirroring the toy example of Figure 5.
func ringScenario() *model.Scenario {
	sc := &model.Scenario{
		Region: model.Region{Min: geom.V(0, 0), Max: geom.V(40, 40)},
		ChargerTypes: []model.ChargerType{
			{Name: "c1", Alpha: math.Pi / 2, DMin: 1, DMax: 8, Count: 2},
		},
		DeviceTypes: []model.DeviceType{
			{Name: "d1", Alpha: 2 * math.Pi, PTh: 0.05},
		},
		Power: [][]model.PowerParams{{{A: 100, B: 40}}},
	}
	center := geom.V(20, 20)
	for i := 0; i < 6; i++ {
		theta := 2 * math.Pi * float64(i) / 6
		sc.Devices = append(sc.Devices, model.Device{
			Pos: center.Add(geom.FromAngle(theta).Scale(5)), Orient: geom.NormAngle(theta + math.Pi), Type: 0,
		})
	}
	return sc
}

func TestRunTaskCoversOwnDevice(t *testing.T) {
	sc := ringScenario()
	gens := []*discretize.Generator{discretize.NewGenerator(sc, 0, discretize.Config{Eps1: 0.4})}
	cands := runTask(sc, gens, 0, 0.4)
	if len(cands) == 0 {
		t.Fatal("task produced no candidates")
	}
	for _, c := range cands {
		for _, dp := range c.Covers {
			if dp.Device == 0 {
				return
			}
		}
	}
	t.Error("task for device 0 never covers device 0")
}

func TestRunExtractionTasksMatchesSerialQuality(t *testing.T) {
	sc := ringScenario()
	serial := pdcs.Extract(sc, 0, pdcs.Config{Eps1: 0.4})
	dist, stats := RunExtractionTasks(sc, 0.4, 4, []int{1, 2, 4}, time.Now)
	if len(dist) != 1 {
		t.Fatalf("per-type buckets = %d", len(dist))
	}
	// The task decomposition must reach the same best coverage quality:
	// compare the maximum covered-set size and maximum total power.
	maxCover := func(cs []pdcs.Candidate) (int, float64) {
		n, p := 0, 0.0
		for _, c := range cs {
			n = max(n, len(c.Covers))
			p = math.Max(p, c.TotalPower())
		}
		return n, p
	}
	sn, sp := maxCover(serial)
	dn, dp := maxCover(dist[0])
	if dn < sn {
		t.Errorf("distributed best cover %d below serial %d", dn, sn)
	}
	if dp < sp-1e-12 {
		t.Errorf("distributed best power %v below serial %v", dp, sp)
	}
	// Timing stats are self-consistent.
	if len(stats.TaskSeconds) != len(sc.Devices) {
		t.Errorf("task seconds = %d entries", len(stats.TaskSeconds))
	}
	sum := 0.0
	for _, s := range stats.TaskSeconds {
		if s < 0 {
			t.Error("negative task time")
		}
		sum += s
	}
	if math.Abs(sum-stats.SerialSeconds) > 1e-9 {
		t.Error("serial time != Σ task times")
	}
	// Makespan decreases (weakly) with machines.
	if stats.MakespanSeconds[2] > stats.MakespanSeconds[1]+1e-12 ||
		stats.MakespanSeconds[4] > stats.MakespanSeconds[2]+1e-12 {
		t.Errorf("makespan grew with machines: %v", stats.MakespanSeconds)
	}
}

func TestRunExtractionTasksManyMachines(t *testing.T) {
	_, stats := RunExtractionTasks(ringScenario(), 0.4, 2, []int{100}, time.Now)
	longest := 0.0
	for _, s := range stats.TaskSeconds {
		longest = math.Max(longest, s)
	}
	if math.Abs(stats.MakespanSeconds[100]-longest) > 1e-12 {
		t.Errorf("m≥No makespan should equal longest task: %v vs %v", stats.MakespanSeconds[100], longest)
	}
}

func TestDedupCandidates(t *testing.T) {
	a := pdcs.Candidate{S: model.Strategy{Pos: geom.V(1, 2), Orient: 0.5, Type: 0}}
	b := pdcs.Candidate{S: model.Strategy{Pos: geom.V(1, 2), Orient: 0.5, Type: 0}}
	c := pdcs.Candidate{S: model.Strategy{Pos: geom.V(1, 2), Orient: 0.7, Type: 0}}
	if out := dedupCandidates([]pdcs.Candidate{a, b, c}); len(out) != 2 {
		t.Errorf("dedup kept %d, want 2", len(out))
	}
}

// distDigest hashes the exact bits of a clock-free run: every task cost,
// the serial sum, the makespans in MachineCounts order, and the merged
// candidates.
func distDigest(cands [][]pdcs.Candidate, st DistStats) (statsDigest, candDigest uint64) {
	h := fnv.New64a()
	w := func(v float64) { fmt.Fprint(h, math.Float64bits(v)) }
	for _, v := range st.TaskSeconds {
		w(v)
	}
	w(st.SerialSeconds)
	for _, m := range MachineCounts {
		w(st.MakespanSeconds[m])
	}
	ch := fnv.New64a()
	for _, cs := range cands {
		for _, c := range cs {
			fmt.Fprint(ch, math.Float64bits(c.S.Pos.X), math.Float64bits(c.S.Pos.Y), math.Float64bits(c.S.Orient), c.S.Type)
			for _, dp := range c.Covers {
				fmt.Fprint(ch, dp.Device, math.Float64bits(dp.Power))
			}
		}
	}
	return h.Sum64(), ch.Sum64()
}

// TestRunExtractionTasksPinned pins Figure 12's deterministic inputs — the
// TaskCost estimates, their serial sum, the simulated LPT makespans, and
// the merged candidates — to the exact values the task decomposition
// produced before it moved onto pdcs.ExtractAt.
func TestRunExtractionTasksPinned(t *testing.T) {
	for _, tc := range []struct {
		mult                  int
		serial                float64
		makespans             []float64 // MachineCounts order
		statsDigest, candHash uint64
		kept                  int
	}{
		{1, 3403, []float64{915, 915, 915, 915, 915}, 0xf8fe255434bfef1b, 0x87bc61b7e1676fd6, 28},
		{2, 11554, []float64{2330, 1802, 1802, 1802, 1802}, 0xa213c84fd981bf9e, 0x17536af0c1813f3, 52},
		{4, 38297, []float64{7678, 3914, 3120, 3120, 3120}, 0x5e779d75022d4481, 0xce7cf1006d87b6fc, 116},
	} {
		sc := BuildScenario(Params{DeviceMult: tc.mult, Seed: 1})
		cands, st := RunExtractionTasks(sc, power.Eps1ForEps(0.15), 2, MachineCounts, nil)
		if st.SerialSeconds != tc.serial {
			t.Errorf("mult %d: serial cost %v, want %v", tc.mult, st.SerialSeconds, tc.serial)
		}
		for i, m := range MachineCounts {
			if st.MakespanSeconds[m] != tc.makespans[i] {
				t.Errorf("mult %d: makespan(%d) = %v, want %v", tc.mult, m, st.MakespanSeconds[m], tc.makespans[i])
			}
		}
		kept := 0
		for _, cs := range cands {
			kept += len(cs)
		}
		sd, cd := distDigest(cands, st)
		if sd != tc.statsDigest || cd != tc.candHash || kept != tc.kept {
			t.Errorf("mult %d: digests %#x/%#x with %d candidates, want %#x/%#x with %d",
				tc.mult, sd, cd, kept, tc.statsDigest, tc.candHash, tc.kept)
		}
	}
}

// TestRunExtractionTasksOrderIndependent: the merged candidates and every
// clock-free statistic must be bit-identical whatever the worker count
// (hand-out order changes, output must not).
func TestRunExtractionTasksOrderIndependent(t *testing.T) {
	sc := BuildScenario(Params{DeviceMult: 2, Seed: 3})
	refS, refC := distDigest(RunExtractionTasks(sc, 0.4, 1, MachineCounts, nil))
	for _, workers := range []int{3, 8} {
		if s, c := distDigest(RunExtractionTasks(sc, 0.4, workers, MachineCounts, nil)); s != refS || c != refC {
			t.Fatalf("workers=%d: digests %#x/%#x differ from the single-worker run %#x/%#x", workers, s, c, refS, refC)
		}
	}
}
