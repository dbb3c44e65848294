// Bit-identity tests for discretization's three spatial prefilters — the
// device grid behind neighbor sets, the device grid behind FilterUseful,
// and the obstacle-near-disk pruning of ring cutting — each against an
// exhaustive scan. Every prefilter only skips candidates its exact
// predicate would reject, so output must match the scan bit for bit.
package discretize_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hipo/internal/corpus"
	"hipo/internal/discretize"
	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/power"
	"hipo/internal/visindex"
)

// prefilterScenarios covers every corpus family plus a dense benchmark
// field, where the grids and the obstacle index prune heavily.
func prefilterScenarios(t *testing.T) map[string]*model.Scenario {
	t.Helper()
	out := map[string]*model.Scenario{"bench": expt.BenchScenario(3, 12, 2)}
	for _, fam := range corpus.Names() {
		sc, err := corpus.BuildModel(5, fam, 0)
		if err != nil {
			t.Fatal(err)
		}
		out[fam] = sc
	}
	return out
}

// forEachGenerator runs fn on a generator of every charger type of every
// prefilter scenario, in a stable order.
func forEachGenerator(t *testing.T, fn func(t *testing.T, sc *model.Scenario, q int, g *discretize.Generator)) {
	scs := prefilterScenarios(t)
	names := make([]string, 0, len(scs))
	for name := range scs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		sc := visindex.Ensure(scs[name])
		for q := range sc.ChargerTypes {
			t.Run(fmt.Sprintf("%s/type-%d", name, q), func(t *testing.T) {
				fn(t, sc, q, discretize.NewGenerator(sc, q, discretize.Config{Eps1: power.Eps1ForEps(0.3)}))
			})
		}
	}
}

func TestNeighborSetsMatchExhaustiveScan(t *testing.T) {
	forEachGenerator(t, func(t *testing.T, sc *model.Scenario, q int, g *discretize.Generator) {
		r := 2 * sc.ChargerTypes[q].DMax
		for i := range sc.Devices {
			var want []int
			for j := range sc.Devices {
				if j != i && sc.Devices[i].Pos.Dist(sc.Devices[j].Pos) <= r {
					want = append(want, j)
				}
			}
			if got := g.Neighbors(i); !slices.Equal(got, want) {
				t.Fatalf("device %d: neighbors %v, exhaustive scan %v", i, got, want)
			}
		}
	})
}

// filterUsefulScan is the exhaustive usefulness filter: a position is kept
// when some device lies within the charging range.
func filterUsefulScan(sc *model.Scenario, q int, pts []geom.Vec) []geom.Vec {
	ct := sc.ChargerTypes[q]
	var out []geom.Vec
	for _, p := range pts {
		for j := range sc.Devices {
			d := p.Dist(sc.Devices[j].Pos)
			if d >= ct.DMin-geom.Eps && d <= ct.DMax+geom.Eps {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

func TestFilterUsefulMatchesExhaustiveScan(t *testing.T) {
	forEachGenerator(t, func(t *testing.T, sc *model.Scenario, q int, g *discretize.Generator) {
		ct := sc.ChargerTypes[q]
		rng := rand.New(rand.NewSource(int64(q) + 1))
		var pts []geom.Vec
		// Uniform points plus points on and just off the range boundaries,
		// where a grid that under-covered its disk would drop a position.
		for k := 0; k < 2000; k++ {
			pts = append(pts, geom.V(
				sc.Region.Min.X+rng.Float64()*sc.Region.Width(),
				sc.Region.Min.Y+rng.Float64()*sc.Region.Height()))
		}
		for _, dev := range sc.Devices {
			for _, r := range []float64{ct.DMin - 2*geom.Eps, ct.DMin, ct.DMax, ct.DMax + geom.Eps/2, ct.DMax + 2*geom.Eps} {
				for a := 0; a < 8; a++ {
					pts = append(pts, dev.Pos.Add(geom.FromAngle(float64(a)*math.Pi/4).Scale(r)))
				}
			}
		}
		want := filterUsefulScan(sc, q, pts)
		got := g.FilterUseful(slices.Clone(pts))
		if !sameBits(got, want) {
			t.Fatalf("grid filter kept %d of %d positions, exhaustive scan %d", len(got), len(pts), len(want))
		}
	})

	// Generated positions, in generation order (grouped by task, so the
	// previous position's witness device usually decides) and shuffled,
	// padded with random points past a few filter chunks. The scenario is
	// TestFilterUsefulDropsClampedRingPoint's with four more devices, so the
	// positions include the clamped ring point (28+5e-9, 20).
	v := geom.V(28+5e-9, 20)
	sc := &model.Scenario{
		Region:       model.Region{Min: geom.V(0, 0), Max: geom.V(40, 40)},
		ChargerTypes: []model.ChargerType{{Name: "c", Alpha: math.Pi / 2, DMin: 2, DMax: 8, Count: 1}},
		DeviceTypes:  []model.DeviceType{{Name: "d", Alpha: 2 * math.Pi, PTh: 0.05}},
		Power:        [][]model.PowerParams{{{A: 100, B: 40}}},
		Devices: []model.Device{{Pos: geom.V(20, 20)}, {Pos: geom.V(4, 4)}, {Pos: geom.V(36, 36)},
			{Pos: geom.V(5, 34)}, {Pos: geom.V(12, 30)}},
		Obstacles: []model.Obstacle{{Shape: geom.Polygon{Vertices: []geom.Vec{v, geom.V(36, 20), geom.V(36, 21)}}}},
	}
	rng := rand.New(rand.NewSource(11))
	for _, workers := range []int{1, 2} {
		g := discretize.NewGenerator(visindex.Ensure(sc), 0, discretize.Config{Eps1: discretize.DefaultEps1(), Workers: workers})
		pts := g.Positions(nil)
		if !sameBits(filterUsefulScan(sc, 0, []geom.Vec{v}), nil) || !slices.ContainsFunc(pts, func(p geom.Vec) bool { return sameBits([]geom.Vec{p}, []geom.Vec{v}) }) {
			t.Fatalf("generation no longer emits the clamped ring point %v, or it is in range", v)
		}
		for len(pts) < 5000 {
			pts = append(pts, geom.V(rng.Float64()*40, rng.Float64()*40))
		}
		for _, order := range []string{"generated", "shuffled"} {
			if order == "shuffled" {
				rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
			}
			want := filterUsefulScan(sc, 0, pts)
			got := g.FilterUseful(slices.Clone(pts))
			if !sameBits(got, want) || len(want) == 0 || len(want) == len(pts) {
				t.Fatalf("workers %d, %s order: FilterUseful kept %d of %d positions, exhaustive scan %d",
					workers, order, len(got), len(pts), len(want))
			}
		}
	}
}

func TestObstaclePruningMatchesExhaustiveScan(t *testing.T) {
	engaged := false
	forEachGenerator(t, func(t *testing.T, sc *model.Scenario, q int, g *discretize.Generator) {
		engaged = engaged || g.ObstaclePruning()
		full := g.WithoutObstaclePruning()
		for i := range sc.Devices {
			if got, want := g.TaskPositions(i), full.TaskPositions(i); !sameBits(got, want) {
				t.Fatalf("task %d: pruned ring cutting emitted %d positions, exhaustive %d", i, len(got), len(want))
			}
		}
	})
	if !engaged {
		t.Fatal("no scenario engaged the obstacle prefilter")
	}
}

func sameBits(a, b []geom.Vec) bool {
	return slices.EqualFunc(a, b, func(x, y geom.Vec) bool {
		return math.Float64bits(x.X) == math.Float64bits(y.X) && math.Float64bits(x.Y) == math.Float64bits(y.Y)
	})
}
