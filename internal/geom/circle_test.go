package geom

import (
	"math"
	"math/rand"
	"testing"
)

// hits is the slice view of an intersection helper's fixed-size result.
func hits(pts [2]Vec, n int) []Vec { return pts[:n] }

func TestCircleCircleIntersections(t *testing.T) {
	a := Circle{V(0, 0), 5}
	b := Circle{V(8, 0), 5}
	pts := hits(CircleCircleIntersections(a, b))
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for _, p := range pts {
		if !almostEq(p.Dist(a.C), 5, 1e-9) || !almostEq(p.Dist(b.C), 5, 1e-9) {
			t.Errorf("point %v not on both circles", p)
		}
	}
	// Tangent circles: one point.
	c := Circle{V(10, 0), 5}
	pts = hits(CircleCircleIntersections(a, c))
	if len(pts) != 1 {
		t.Fatalf("tangent: got %d points, want 1", len(pts))
	}
	if !pts[0].Eq(V(5, 0)) {
		t.Errorf("tangent point = %v", pts[0])
	}
	// Disjoint.
	if pts := hits(CircleCircleIntersections(a, Circle{V(20, 0), 5})); len(pts) != 0 {
		t.Errorf("disjoint circles intersect: %v", pts)
	}
	// Nested.
	if pts := hits(CircleCircleIntersections(a, Circle{V(1, 0), 1})); len(pts) != 0 {
		t.Errorf("nested circles intersect: %v", pts)
	}
	// Concentric.
	if pts := hits(CircleCircleIntersections(a, Circle{V(0, 0), 3})); len(pts) != 0 {
		t.Errorf("concentric circles intersect: %v", pts)
	}
}

func TestCircleSegmentIntersections(t *testing.T) {
	c := Circle{V(0, 0), 5}
	// Secant through center.
	pts := hits(CircleSegmentIntersections(c, Seg(V(-10, 0), V(10, 0))))
	if len(pts) != 2 {
		t.Fatalf("secant: %d points, want 2", len(pts))
	}
	// Segment ending inside: one point.
	pts = hits(CircleSegmentIntersections(c, Seg(V(0, 0), V(10, 0))))
	if len(pts) != 1 || !pts[0].Eq(V(5, 0)) {
		t.Fatalf("half-secant: %v", pts)
	}
	// Tangent.
	pts = hits(CircleSegmentIntersections(c, Seg(V(-10, 5), V(10, 5))))
	if len(pts) != 1 || !pts[0].Eq(V(0, 5)) {
		t.Fatalf("tangent: %v", pts)
	}
	// Miss.
	if pts := hits(CircleSegmentIntersections(c, Seg(V(-10, 6), V(10, 6)))); len(pts) != 0 {
		t.Fatalf("miss: %v", pts)
	}
	// Entirely inside.
	if pts := hits(CircleSegmentIntersections(c, Seg(V(-1, 0), V(1, 0)))); len(pts) != 0 {
		t.Fatalf("inside: %v", pts)
	}
}

func TestCircleLineIntersections(t *testing.T) {
	c := Circle{V(0, 0), 5}
	pts := hits(CircleLineIntersections(c, V(-1, 3), V(1, 3)))
	if len(pts) != 2 {
		t.Fatalf("line: %d points", len(pts))
	}
	for _, p := range pts {
		if !almostEq(p.Dist(c.C), 5, 1e-9) || !almostEq(p.Y, 3, 1e-9) {
			t.Errorf("bad line intersection %v", p)
		}
	}
	if pts := hits(CircleLineIntersections(c, V(-1, 6), V(1, 6))); len(pts) != 0 {
		t.Errorf("line above circle hits: %v", pts)
	}
}

func TestInscribedArcCircles(t *testing.T) {
	a, b := V(0, 0), V(4, 0)
	alpha := math.Pi / 3 // 60°
	cs := InscribedArcCircles(a, b, alpha)
	if len(cs) != 2 {
		t.Fatalf("got %d circles, want 2", len(cs))
	}
	wantR := 4 / (2 * math.Sin(alpha))
	for _, c := range cs {
		if !almostEq(c.R, wantR, 1e-9) {
			t.Errorf("radius = %v, want %v", c.R, wantR)
		}
		if !almostEq(c.C.Dist(a), c.R, 1e-9) || !almostEq(c.C.Dist(b), c.R, 1e-9) {
			t.Errorf("chord endpoints not on circle %v", c)
		}
		// Inscribed angle theorem: a point on the major arc sees ab at alpha.
		// The major arc is on the same side as the center offset direction
		// opposite the chord... take the point diametrically opposite the
		// chord midpoint projection.
		mid := Lerp(a, b, 0.5)
		dir := c.C.Sub(mid)
		if dir.Len() < Eps {
			dir = V(0, 1)
		}
		p := c.C.Add(dir.Unit().Scale(c.R)) // farthest point from chord
		va := a.Sub(p)
		vb := b.Sub(p)
		angle := math.Acos(va.Dot(vb) / (va.Len() * vb.Len()))
		if !almostEq(angle, alpha, 1e-9) {
			t.Errorf("inscribed angle = %v, want %v", angle, alpha)
		}
	}
	// Degenerate inputs.
	if cs := InscribedArcCircles(a, a, alpha); cs != nil {
		t.Error("coincident points should give no circles")
	}
	if cs := InscribedArcCircles(a, b, math.Pi); cs != nil {
		t.Error("alpha = π should give no circles")
	}
}

// Property: all reported circle-circle intersection points lie on both
// circles.
func TestCircleCircleOnBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	found := 0
	for i := 0; i < 2000; i++ {
		a := Circle{randVec(rng, 20), 1 + rng.Float64()*10}
		b := Circle{randVec(rng, 20), 1 + rng.Float64()*10}
		for _, p := range hits(CircleCircleIntersections(a, b)) {
			found++
			if math.Abs(p.Dist(a.C)-a.R) > 1e-6 || math.Abs(p.Dist(b.C)-b.R) > 1e-6 {
				t.Fatalf("point %v not on both circles", p)
			}
		}
	}
	if found < 200 {
		t.Fatalf("too few intersections found: %d", found)
	}
}

func TestCirclePointAt(t *testing.T) {
	c := Circle{V(1, 2), 3}
	p := c.PointAt(math.Pi / 2)
	if !p.Eq(V(1, 5)) {
		t.Errorf("PointAt(π/2) = %v", p)
	}
	if !c.ContainsPoint(V(1, 2)) || !c.ContainsPoint(V(4, 2)) {
		t.Error("containment broken")
	}
	if c.ContainsPoint(V(4.01, 2.01)) {
		t.Error("should not contain point outside")
	}
}
