package geom

// Native Go fuzz targets for the geometric predicates. Run with
// `go test -fuzz=FuzzX ./internal/geom` to explore beyond the seed corpus;
// under plain `go test` the seeds act as table-driven robustness tests.

import (
	"math"
	"testing"
)

func boundedCoord(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

// FuzzSegmentsIntersect checks the predicates never disagree with each
// other and never panic on arbitrary coordinates.
func FuzzSegmentsIntersect(f *testing.F) {
	f.Add(0.0, 0.0, 2.0, 2.0, 0.0, 2.0, 2.0, 0.0)
	f.Add(0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 2.0, 0.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0) // degenerate points
	f.Add(1e-15, 0.0, -1e-15, 0.0, 0.0, 1e-15, 0.0, -1e-15)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		s := Seg(V(boundedCoord(ax), boundedCoord(ay)), V(boundedCoord(bx), boundedCoord(by)))
		u := Seg(V(boundedCoord(cx), boundedCoord(cy)), V(boundedCoord(dx), boundedCoord(dy)))
		inter := SegmentsIntersect(s, u)
		// Symmetry.
		if inter != SegmentsIntersect(u, s) {
			t.Fatalf("asymmetric intersection for %v, %v", s, u)
		}
		// If a unique intersection point is reported, the segments intersect.
		if p, ok := SegmentIntersection(s, u); ok {
			if !inter {
				t.Fatalf("point %v reported but predicates disagree", p)
			}
			if s.DistToPoint(p) > 1e-5*math.Max(1, s.Len()) ||
				u.DistToPoint(p) > 1e-5*math.Max(1, u.Len()) {
				t.Fatalf("intersection point %v off segments", p)
			}
		}
		// Interior crossing implies intersection.
		if SegmentsCrossInterior(s, u) && !inter {
			t.Fatalf("interior crossing without intersection: %v, %v", s, u)
		}
	})
}

// FuzzSegmentIntersect targets the unique-point constructor
// SegmentIntersection: the ok flag must be symmetric in the operands, the
// reported points of both orders must coincide, and reversing a segment's
// endpoints must not change the answer.
func FuzzSegmentIntersect(f *testing.F) {
	f.Add(0.0, 0.0, 2.0, 2.0, 0.0, 2.0, 2.0, 0.0) // proper crossing
	f.Add(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.0) // shared endpoint
	f.Add(0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 3.0, 0.0) // collinear overlap
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0) // degenerate first operand
	f.Add(1e-12, 0.0, 0.0, 1e-12, -1.0, -1.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		s := Seg(V(boundedCoord(ax), boundedCoord(ay)), V(boundedCoord(bx), boundedCoord(by)))
		u := Seg(V(boundedCoord(cx), boundedCoord(cy)), V(boundedCoord(dx), boundedCoord(dy)))
		p1, ok1 := SegmentIntersection(s, u)
		p2, ok2 := SegmentIntersection(u, s)
		if ok1 != ok2 {
			t.Fatalf("asymmetric ok: (%v,%v) -> %v, swapped -> %v", s, u, ok1, ok2)
		}
		scale := math.Max(1, math.Max(s.Len(), u.Len()))
		if ok1 && p1.Dist(p2) > 1e-6*scale {
			t.Fatalf("operand order moved the point: %v vs %v", p1, p2)
		}
		// Reversing a segment's direction describes the same point set.
		rev := Seg(s.B, s.A)
		p3, ok3 := SegmentIntersection(rev, u)
		if ok1 != ok3 {
			t.Fatalf("reversing endpoints changed ok: %v -> %v", ok1, ok3)
		}
		if ok1 && p1.Dist(p3) > 1e-6*scale {
			t.Fatalf("reversing endpoints moved the point: %v vs %v", p1, p3)
		}
		// The constructor must stay consistent with the boolean predicate.
		if ok1 && !SegmentsIntersect(s, u) {
			t.Fatalf("point %v reported for non-intersecting %v, %v", p1, s, u)
		}
	})
}

// FuzzPolygonContains checks that the three containment predicates stay
// mutually consistent on arbitrary triangles.
func FuzzPolygonContains(f *testing.F) {
	f.Add(0.0, 0.0, 4.0, 0.0, 0.0, 4.0, 1.0, 1.0)
	f.Add(0.0, 0.0, 4.0, 0.0, 0.0, 4.0, 2.0, 0.0) // on edge
	f.Add(0.0, 0.0, 4.0, 0.0, 0.0, 4.0, 9.0, 9.0) // outside
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, px, py float64) {
		tri := Poly(
			V(boundedCoord(ax), boundedCoord(ay)),
			V(boundedCoord(bx), boundedCoord(by)),
			V(boundedCoord(cx), boundedCoord(cy)),
		)
		if tri.Validate() != nil {
			return
		}
		p := V(boundedCoord(px), boundedCoord(py))
		interior := tri.ContainsInterior(p)
		contained := tri.ContainsPoint(p)
		boundary := tri.OnBoundary(p)
		if interior && !contained {
			t.Fatal("interior but not contained")
		}
		if boundary && !contained {
			t.Fatal("boundary but not contained")
		}
		if interior && boundary {
			t.Fatal("both interior and boundary")
		}
	})
}

// FuzzIntervalSet checks that Add never panics and coverage is monotone.
func FuzzIntervalSet(f *testing.F) {
	f.Add(0.0, 1.0, 2.0, 3.0, 0.5)
	f.Add(5.0, 7.0, 0.0, 6.4, 6.2) // wrap-around
	f.Fuzz(func(t *testing.T, lo1, w1, lo2, w2, probe float64) {
		mk := func(lo, w float64) Interval {
			if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(w) || math.IsInf(w, 0) {
				return Interval{}
			}
			l := NormAngle(lo)
			return Interval{Lo: l, Hi: l + math.Mod(math.Abs(w), 2*math.Pi)}
		}
		if math.IsNaN(probe) || math.IsInf(probe, 0) {
			probe = 0
		}
		var s IntervalSet
		s.Add(mk(lo1, w1))
		before := s.Covers(probe)
		s.Add(mk(lo2, w2))
		if before && !s.Covers(probe) {
			t.Fatal("adding an interval removed coverage")
		}
		// Complement partitions the circle (within Eps effects): nothing is
		// uncovered by both.
		var comp IntervalSet
		for _, iv := range s.Complement() {
			comp.Add(iv)
		}
		if !s.Covers(probe) && !comp.Covers(probe) {
			t.Fatalf("angle %v in neither set nor complement", probe)
		}
	})
}

// FuzzCircleSegment checks reported intersection points lie on both shapes.
func FuzzCircleSegment(f *testing.F) {
	f.Add(0.0, 0.0, 5.0, -10.0, 0.0, 10.0, 0.0)
	f.Add(1.0, 2.0, 0.5, 1.0, 2.0, 1.0, 2.0) // degenerate segment
	f.Fuzz(func(t *testing.T, cx, cy, r, ax, ay, bx, by float64) {
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 || r > 1e6 {
			return
		}
		c := Circle{C: V(boundedCoord(cx), boundedCoord(cy)), R: r}
		s := Seg(V(boundedCoord(ax), boundedCoord(ay)), V(boundedCoord(bx), boundedCoord(by)))
		for _, p := range hits(CircleSegmentIntersections(c, s)) {
			scale := math.Max(1, r)
			if math.Abs(p.Dist(c.C)-r) > 1e-5*scale {
				t.Fatalf("point %v not on circle (dist %v, r %v)", p, p.Dist(c.C), r)
			}
			if s.DistToPoint(p) > 1e-5*math.Max(1, s.Len()) {
				t.Fatalf("point %v not on segment", p)
			}
		}
	})
}
