// Line-of-sight differential on the benchmark scenario trajectory: the
// seeded expt.BenchScenario fields the placement, extraction and
// incremental differentials solve on, each queried with random segments
// that must get the same answer from the index and from the brute-force
// obstacle scan.
package visindex_test

import (
	"fmt"
	"math"
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
			if got, want := ix.LineOfSight(a, b), model.BruteForce(sc.Obstacles).LineOfSight(a, b); got != want {
				t.Fatalf("%d obstacles, %d devices, query %d %v→%v: indexed %v, brute force %v",
					p.obstacles, len(sc.Devices), i, a, b, got, want)
			}
		}
	}
}

// TestCertificatesMatchBruteForceOnBenchScenarios queries every device's
// certificate where its margin band lives: along each device's hole rays,
// along the direction of every obstacle vertex (short of, at, and past the
// vertex, out to twice its distance, and turned off it by 1e-12 to 1e-3
// rad), and along the directions of points on every obstacle edge within
// reach (on the edge and up to 1e-4 short of or past it). A verdict other
// than Uncertain must be brute force's line of sight. The tiers also gain
// a device on an obstacle edge, which must get no certificate.
func TestCertificatesMatchBruteForceOnBenchScenarios(t *testing.T) {
	const seed = 1
	for _, p := range []struct{ obstacles, deviceMult int }{
		{2, 4}, {10, 4}, {25, 4}, {50, 4}, {100, 10},
	} {
		t.Run(fmt.Sprintf("%d-obstacles-x%d", p.obstacles, p.deviceMult), func(t *testing.T) {
			if p.obstacles >= 100 && testing.Short() {
				t.Skip("benchmark-scale tier")
			}
			sc := expt.BenchScenario(seed, p.obstacles, p.deviceMult)
			edge := sc.Obstacles[0].Shape.Vertices
			onEdge := model.Device{Pos: geom.Lerp(edge[0], edge[1], 0.5)}
			sc.Devices = append(sc.Devices, onEdge)
			reach := 0.0
			for _, ct := range sc.ChargerTypes {
				reach = math.Max(reach, ct.DMax)
			}
			ix := visindex.New(sc)
			pts := make([]geom.Vec, len(sc.Devices))
			for j := range pts {
				pts[j] = sc.Devices[j].Pos
			}
			certs := ix.Certificates(pts)
			if certs[len(certs)-1].Get() != nil {
				t.Fatalf("device on an obstacle edge at %v got a certificate", onEdge.Pos)
			}
			var counts [3]int
			check := func(j int, a geom.Vec) {
				c := pts[j]
				v := certs[j].Get().Classify(a, math.Sqrt(a.Sub(c).Len2()))
				counts[v]++
				if want := model.BruteForce(sc.Obstacles).LineOfSight(a, c); v == visindex.Visible && !want || v == visindex.Blocked && want {
					t.Fatalf("device %d at %v, query %v: certificate %v, brute force line of sight %v", j, c, a, v, want)
				}
			}
			for j, c := range pts {
				for _, h := range ix.HoleRays(c, reach) {
					for _, f := range []float64{0, 0.25, 0.5, 1} {
						check(j, geom.Lerp(h.A, h.B, f))
					}
				}
				for _, o := range sc.Obstacles {
					for _, v := range o.Shape.Vertices {
						r := v.Sub(c)
						for _, f := range []float64{0.5, 1 - 1e-9, 1, 1 + 1e-9, 1.25, 2} {
							check(j, c.Add(r.Scale(f)))
						}
						for _, turn := range []float64{1e-12, 1e-9, 1e-6, 1e-3} {
							check(j, c.Add(r.Rotate(turn).Scale(1.25)))
							check(j, c.Add(r.Rotate(-turn).Scale(1.25)))
						}
					}
					vs := o.Shape.Vertices
					for k, a := range vs {
						e := geom.Seg(a, vs[(k+1)%len(vs)])
						if e.DistToPoint(c) > reach {
							continue
						}
						for _, t := range []float64{0.25, 0.5, 0.75} {
							r := e.At(t).Sub(c)
							for _, f := range []float64{1, 1e-12, 1e-9, 1e-6, 1e-4} {
								check(j, c.Add(r.Scale(1+f)))
								check(j, c.Add(r.Scale(1-f)))
							}
						}
					}
				}
			}
			if counts[visindex.Visible] == 0 || counts[visindex.Blocked] == 0 || counts[visindex.Uncertain] == 0 {
				t.Fatalf("verdicts visible/blocked/uncertain = %d/%d/%d: not every outcome exercised",
					counts[visindex.Visible], counts[visindex.Blocked], counts[visindex.Uncertain])
			}
		})
	}
}

// regionPoint draws a uniform point in the scenario's region.
func regionPoint(sc *model.Scenario, rng *rand.Rand) geom.Vec {
	return geom.V(
		sc.Region.Min.X+rng.Float64()*sc.Region.Width(),
		sc.Region.Min.Y+rng.Float64()*sc.Region.Height(),
	)
}
