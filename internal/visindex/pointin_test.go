// Differential tests for the indexed point-in-obstacle query: the grid
// lookup plus padded-box screen must answer exactly as a brute-force
// Polygon.ContainsInterior scan, on the probes where a wrong screen or a
// missed cell would show — vertices, edges, points a fraction of Eps off an
// edge, and the padded boxes themselves.
package visindex_test

import (
	"math"
	"testing"

	"hipo/internal/corpus"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/visindex"
)

// boxPad is visindex's gridPad: the margin of every obstacle's padded box.
const boxPad = 1e-6

// concaveField is a hand-built obstacle field of concave polygons (an L, a
// U, a star and a comb) whose notches put exterior points inside the
// bounding box, so the box screen alone cannot decide them.
func concaveField() *model.Scenario {
	star := make([]geom.Vec, 10)
	for i := range star {
		r := 3.0
		if i%2 == 1 {
			r = 1.2
		}
		star[i] = geom.V(30, 30).Add(geom.FromAngle(float64(i) * math.Pi / 5).Scale(r))
	}
	polys := []geom.Polygon{
		geom.Poly(geom.V(2, 2), geom.V(10, 2), geom.V(10, 4), geom.V(4, 4), geom.V(4, 10), geom.V(2, 10)),
		geom.Poly(geom.V(14, 2), geom.V(22, 2), geom.V(22, 10), geom.V(20, 10), geom.V(20, 4), geom.V(16, 4), geom.V(16, 10), geom.V(14, 10)),
		{Vertices: star},
		geom.Poly(geom.V(2, 20), geom.V(12, 20), geom.V(12, 28), geom.V(10, 28), geom.V(10, 22), geom.V(8, 22),
			geom.V(8, 28), geom.V(6, 28), geom.V(6, 22), geom.V(4, 22), geom.V(4, 28), geom.V(2, 28)),
		// A second L overlapping the comb's box, so one cell holds several
		// obstacles and the per-obstacle screen skips some of them.
		geom.Poly(geom.V(11, 21), geom.V(16, 21), geom.V(16, 23), geom.V(13, 23), geom.V(13, 27), geom.V(11, 27)),
	}
	sc := &model.Scenario{Region: model.Region{Min: geom.V(0, 0), Max: geom.V(40, 40)}}
	for _, p := range polys {
		sc.Obstacles = append(sc.Obstacles, model.Obstacle{Shape: p})
	}
	return sc
}

// pointInFields returns the concave field plus every corpus family's
// obstacle field, each with its index built.
func pointInFields(t testing.TB) ([]*model.Scenario, []*visindex.Index) {
	scs := []*model.Scenario{concaveField()}
	for _, fam := range corpus.Names() {
		sc, err := corpus.BuildModel(5, fam, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(sc.Obstacles) > 0 {
			scs = append(scs, sc)
		}
	}
	ixs := make([]*visindex.Index, len(scs))
	for i, sc := range scs {
		ixs[i] = visindex.New(sc)
	}
	return scs, ixs
}

// bruteInObstacle is the exhaustive reference: strictly inside any
// obstacle by the exact predicate.
func bruteInObstacle(sc *model.Scenario, p geom.Vec) bool {
	for _, o := range sc.Obstacles {
		if o.Shape.ContainsInterior(p) {
			return true
		}
	}
	return false
}

// pointInProbes lists the boundary-sensitive probes of every obstacle in
// sc: vertices, edge midpoints, points Eps/2 and 2·Eps off each edge on
// both sides, the padded box's corners and edge midpoints with points just
// inside and outside them, and interior and exterior samples.
func pointInProbes(sc *model.Scenario) []geom.Vec {
	var out []geom.Vec
	for _, o := range sc.Obstacles {
		vs := o.Shape.Vertices
		for i, a := range vs {
			b := vs[(i+1)%len(vs)]
			mid := geom.Lerp(a, b, 0.5)
			n := b.Sub(a).Perp().Unit()
			out = append(out, a, mid)
			for _, off := range []float64{geom.Eps / 2, 2 * geom.Eps} {
				out = append(out, mid.Add(n.Scale(off)), mid.Sub(n.Scale(off)))
			}
			// Points a quarter along the edge, pushed well inside and
			// outside: interior and exterior samples near concave notches.
			q := geom.Lerp(a, b, 0.25)
			out = append(out, q.Add(n.Scale(0.05)), q.Sub(n.Scale(0.05)))
		}
		lo, hi := o.Shape.BoundingBox()
		plo, phi := lo.Sub(geom.V(boxPad, boxPad)), hi.Add(geom.V(boxPad, boxPad))
		c := geom.Lerp(plo, phi, 0.5)
		for _, p := range []geom.Vec{
			plo, phi, geom.V(plo.X, phi.Y), geom.V(phi.X, plo.Y),
			geom.V(plo.X, c.Y), geom.V(phi.X, c.Y), geom.V(c.X, plo.Y), geom.V(c.X, phi.Y),
		} {
			out = append(out, p)
			for _, d := range []float64{-boxPad / 2, boxPad / 2, -2 * boxPad, 2 * boxPad} {
				out = append(out, p.Add(geom.V(d, 0)), p.Add(geom.V(0, d)))
			}
		}
		out = append(out, o.Shape.Centroid(), c)
	}
	for x := -1.0; x <= 41; x += 2.5 {
		for y := -1.0; y <= 41; y += 2.5 {
			out = append(out, geom.V(x, y))
		}
	}
	return out
}

func TestPointInObstacleProbesMatchBruteForce(t *testing.T) {
	scs, ixs := pointInFields(t)
	for i, sc := range scs {
		inside := 0
		for _, p := range pointInProbes(sc) {
			want := bruteInObstacle(sc, p)
			if got := ixs[i].PointInObstacle(p); got != want {
				t.Fatalf("field %d: PointInObstacle(%v) = %v, brute force %v", i, p, got, want)
			}
			if want {
				inside++
			}
		}
		if inside == 0 {
			t.Fatalf("field %d: no probe landed inside an obstacle", i)
		}
	}
}

func TestPointInObstacleAllocationFree(t *testing.T) {
	scs, ixs := pointInFields(t)
	probes := pointInProbes(scs[0])
	var sink bool
	if n := testing.AllocsPerRun(20, func() {
		for _, p := range probes {
			sink = sink != ixs[0].PointInObstacle(p)
		}
	}); n != 0 {
		t.Errorf("PointInObstacle allocates %v times per run", n)
	}
	_ = sink
}

// FuzzPointInObstacle differentially fuzzes the indexed query against the
// brute-force scan over the concave field and the corpus obstacle fields.
// The seed corpus is the boundary-sensitive probe set.
func FuzzPointInObstacle(f *testing.F) {
	scs, ixs := pointInFields(f)
	for i, sc := range scs {
		for k, p := range pointInProbes(sc) {
			if k%7 == 0 {
				f.Add(uint8(i), p.X, p.Y)
			}
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, x, y float64) {
		if math.IsNaN(x) || math.IsNaN(y) || math.Abs(x) > 1e4 || math.Abs(y) > 1e4 {
			t.Skip("out of the supported coordinate range")
		}
		i := int(sel) % len(scs)
		p := geom.V(x, y)
		if got, want := ixs[i].PointInObstacle(p), bruteInObstacle(scs[i], p); got != want {
			t.Fatalf("field %d: PointInObstacle(%v) = %v, brute force %v", i, p, got, want)
		}
	})
}
