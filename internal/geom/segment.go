package geom

import "math"

// Segment is the closed line segment between A and B.
type Segment struct {
	A, B Vec
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Vec) Segment { return Segment{a, b} }

// Len returns the segment length.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// Dir returns the unnormalized direction B − A.
func (s Segment) Dir() Vec { return s.B.Sub(s.A) }

// At returns the point A + t(B−A).
func (s Segment) At(t float64) Vec { return Lerp(s.A, s.B, t) }

// Mid returns the segment midpoint.
func (s Segment) Mid() Vec { return s.At(0.5) }

// ClosestPoint returns the point on the segment closest to p.
func (s Segment) ClosestPoint(p Vec) Vec {
	d := s.Dir()
	l2 := d.Len2()
	if l2 < Eps*Eps {
		return s.A
	}
	t := p.Sub(s.A).Dot(d) / l2
	t = max(0, min(1, t))
	return s.At(t)
}

// DistToPoint returns the distance from p to the segment.
func (s Segment) DistToPoint(p Vec) float64 {
	return s.ClosestPoint(p).Dist(p)
}

// ContainsPoint reports whether p lies on the segment within Eps.
func (s Segment) ContainsPoint(p Vec) bool {
	// Squared-distance form avoids a hypot on this hot path.
	return s.ClosestPoint(p).Dist2(p) <= Eps*Eps
}

// orient returns the sign of the cross product (b−a) × (c−a): +1 for a left
// turn, −1 for a right turn, 0 for collinear within Eps (scaled by the
// operand magnitudes to stay robust for large coordinates).
func orient(a, b, c Vec) int {
	v := b.Sub(a)
	w := c.Sub(a)
	x := v.Cross(w)
	// L1 norms are a cheap upper bound on the Euclidean lengths; the scale
	// only calibrates the Eps tolerance, so avoiding two hypot calls here
	// matters on the line-of-sight hot path.
	// The builtin max is exact here: both norms are ≥ 0 or NaN, and where it
	// differs from math.Max (one operand +Inf, the other NaN) the scale is
	// +Inf versus NaN, and every comparison below is false either way.
	scale := max(1, math.Abs(v.X)+math.Abs(v.Y), math.Abs(w.X)+math.Abs(w.Y))
	switch {
	case x > Eps*scale:
		return 1
	case x < -Eps*scale:
		return -1
	default:
		return 0
	}
}

// SegmentsIntersect reports whether the closed segments s and t share at
// least one point (touching endpoints count).
func SegmentsIntersect(s, t Segment) bool {
	d1 := orient(t.A, t.B, s.A)
	d2 := orient(t.A, t.B, s.B)
	d3 := orient(s.A, s.B, t.A)
	d4 := orient(s.A, s.B, t.B)
	if d1*d2 < 0 && d3*d4 < 0 {
		return true
	}
	if d1 == 0 && t.ContainsPoint(s.A) {
		return true
	}
	if d2 == 0 && t.ContainsPoint(s.B) {
		return true
	}
	if d3 == 0 && s.ContainsPoint(t.A) {
		return true
	}
	if d4 == 0 && s.ContainsPoint(t.B) {
		return true
	}
	return false
}

// SegmentsCrossInterior reports whether the open interiors of s and t share
// a point: intersections that occur exactly at an endpoint of either segment
// are ignored. This is the right predicate for line-of-sight through a
// polygon vertex that merely grazes the ray.
func SegmentsCrossInterior(s, t Segment) bool {
	p, ok := SegmentIntersection(s, t)
	if !ok {
		// Could still overlap collinearly; test interior overlap.
		if orient(s.A, s.B, t.A) == 0 && orient(s.A, s.B, t.B) == 0 {
			return collinearInteriorOverlap(s, t)
		}
		return false
	}
	if p.Eq(s.A) || p.Eq(s.B) || p.Eq(t.A) || p.Eq(t.B) {
		return false
	}
	return true
}

func collinearInteriorOverlap(s, t Segment) bool {
	d := s.Dir()
	l2 := d.Len2()
	if l2 < Eps*Eps {
		return false
	}
	ta := t.A.Sub(s.A).Dot(d) / l2
	tb := t.B.Sub(s.A).Dot(d) / l2
	lo := math.Min(ta, tb)
	hi := math.Max(ta, tb)
	const margin = 1e-7
	return hi > margin && lo < 1-margin && hi-math.Max(lo, 0) > margin
}

// SegmentIntersection returns the unique intersection point of the closed
// segments s and t, if one exists. Collinear overlapping segments report no
// unique point (ok = false).
func SegmentIntersection(s, t Segment) (Vec, bool) {
	return segmentIntersection(s, t, s.Dir().Len(), t.Dir().Len())
}

// segmentIntersection is SegmentIntersection with the operand lengths
// supplied by the caller: rl must be exactly s.Dir().Len() and ql exactly
// t.Dir().Len(), so callers that cache them get the same bits without the
// two Hypot calls.
func segmentIntersection(s, t Segment, rl, ql float64) (Vec, bool) {
	r := s.Dir()
	q := t.Dir()
	den := r.Cross(q)
	scale := max(1, rl*ql)
	if math.Abs(den) <= Eps*scale {
		return Vec{}, false
	}
	diff := t.A.Sub(s.A)
	u := diff.Cross(q) / den
	v := diff.Cross(r) / den
	const tol = 1e-9
	if u < -tol || u > 1+tol || v < -tol || v > 1+tol {
		return Vec{}, false
	}
	return s.At(max(0, min(1, u))), true
}

// Ray is a half-infinite line from Origin in direction Dir (unnormalized).
type Ray struct {
	Origin, Dir Vec
}

// At returns Origin + t·Dir.
func (r Ray) At(t float64) Vec { return r.Origin.Add(r.Dir.Scale(t)) }

// RaySegmentIntersection returns the intersection of ray r with segment s
// nearest to the ray origin, with the ray parameter t ≥ 0.
func RaySegmentIntersection(r Ray, s Segment) (Vec, float64, bool) {
	q := s.Dir()
	den := r.Dir.Cross(q)
	scale := math.Max(1, r.Dir.Len()*q.Len())
	if math.Abs(den) <= Eps*scale {
		return Vec{}, 0, false
	}
	diff := s.A.Sub(r.Origin)
	t := diff.Cross(q) / den
	v := diff.Cross(r.Dir) / den
	const tol = 1e-9
	if t < -tol || v < -tol || v > 1+tol {
		return Vec{}, 0, false
	}
	t = math.Max(0, t)
	return r.At(t), t, true
}

// LineSegmentIntersections returns the points where the infinite line
// through a and b meets segment s (0 or 1 points; collinear overlap reports
// none).
func LineSegmentIntersections(a, b Vec, s Segment) (Vec, bool) {
	r := b.Sub(a)
	q := s.Dir()
	den := r.Cross(q)
	scale := math.Max(1, r.Len()*q.Len())
	if math.Abs(den) <= Eps*scale {
		return Vec{}, false
	}
	diff := s.A.Sub(a)
	v := diff.Cross(r) / den
	const tol = 1e-9
	if v < -tol || v > 1+tol {
		return Vec{}, false
	}
	return s.At(math.Max(0, math.Min(1, v))), true
}
