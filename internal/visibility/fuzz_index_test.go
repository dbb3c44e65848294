// The indexed fuzz differential lives in an external test package because
// visindex imports visibility: an in-package test importing visindex would
// form an import cycle.
package visibility_test

import (
	"math"
	"testing"

	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/visindex"
)

func fuzzCoord(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e4)
}

// FuzzLineOfSightIndexed feeds arbitrary triangle obstacles and endpoints
// through both visibility paths: the spatial index must agree bit-for-bit
// with the brute-force obstacle scan on every query the fuzzer invents —
// grazing rays, vertex endpoints, degenerate segments, slivers.
func FuzzLineOfSightIndexed(f *testing.F) {
	f.Add(2.0, 2.0, 6.0, 2.0, 4.0, 6.0, 0.0, 3.0, 9.0, 3.0)    // blocked crossing
	f.Add(2.0, 2.0, 6.0, 2.0, 4.0, 6.0, 0.0, 9.0, 9.0, 9.0)    // clear above
	f.Add(2.0, 2.0, 6.0, 2.0, 4.0, 6.0, 4.0, 3.0, 4.0, 3.0)    // degenerate segment inside
	f.Add(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0)    // endpoints on vertices
	f.Add(1e-9, 0.0, 1.0, 1e-9, 0.5, 1.0, -1.0, 0.5, 2.0, 0.5) // sliver triangle
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, px, py, qx, qy float64) {
		tri := geom.Poly(
			geom.V(fuzzCoord(ax), fuzzCoord(ay)),
			geom.V(fuzzCoord(bx), fuzzCoord(by)),
			geom.V(fuzzCoord(cx), fuzzCoord(cy)),
		)
		if tri.Validate() != nil {
			return
		}
		sc := &model.Scenario{
			Region:    model.Region{Min: geom.V(-1e4, -1e4), Max: geom.V(1e4, 1e4)},
			Obstacles: []model.Obstacle{{Shape: tri}},
		}
		ix := visindex.New(sc)
		p := geom.V(fuzzCoord(px), fuzzCoord(py))
		q := geom.V(fuzzCoord(qx), fuzzCoord(qy))

		if got, want := ix.LineOfSight(p, q), model.BruteForce(sc.Obstacles).LineOfSight(p, q); got != want {
			t.Fatalf("indexed LineOfSight(%v, %v) = %v, brute force %v", p, q, got, want)
		}
		brute := tri.ContainsInterior(p)
		if got := ix.PointInObstacle(p); got != brute {
			t.Fatalf("indexed PointInObstacle(%v) = %v, brute force %v", p, got, brute)
		}
		// The attached-index path through the scenario must match too.
		idxSc := visindex.Ensure(sc)
		if idxSc.LineOfSight(p, q) != model.BruteForce(sc.Obstacles).LineOfSight(p, q) {
			t.Fatalf("scenario with index diverges at (%v, %v)", p, q)
		}
	})
}
