// Line-of-sight differential on the benchmark scenario trajectory: the
// seeded expt.BenchScenario fields the placement, extraction and
// incremental differentials solve on, each queried with random segments
// that must get the same answer from the index and from the brute-force
// obstacle scan.
package visindex_test

import (
	"math/rand"
	"testing"

	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/visindex"
)

// TestLineOfSightMatchesBruteForceOnBenchScenarios checks 512 seeded random
// segments per (obstacles, device multiplier) point, from 2 obstacles up to
// the 200-obstacle, 200-device tier.
func TestLineOfSightMatchesBruteForceOnBenchScenarios(t *testing.T) {
	const seed = 1
	for _, p := range []struct{ obstacles, deviceMult int }{
		{2, 4}, {10, 4}, {25, 4}, {50, 4}, {10, 2}, {10, 6}, {100, 10}, {200, 20},
	} {
		sc := expt.BenchScenario(seed, p.obstacles, p.deviceMult)
		ix := visindex.New(sc)
		rng := rand.New(rand.NewSource(seed + 7919))
		for i := 0; i < 512; i++ {
			a, b := regionPoint(sc, rng), regionPoint(sc, rng)
			if got, want := ix.LineOfSight(a, b), sc.BruteForceLineOfSight(a, b); got != want {
				t.Fatalf("%d obstacles, %d devices, query %d %v→%v: indexed %v, brute force %v",
					p.obstacles, len(sc.Devices), i, a, b, got, want)
			}
		}
	}
}

// regionPoint draws a uniform point in the scenario's region.
func regionPoint(sc *model.Scenario, rng *rand.Rand) geom.Vec {
	return geom.V(
		sc.Region.Min.X+rng.Float64()*sc.Region.Width(),
		sc.Region.Min.Y+rng.Float64()*sc.Region.Height(),
	)
}
