package geom

import "math"

// Arc is a counterclockwise circular arc: the part of Circle{C, R} swept
// from angle Span.Lo to Span.Hi. A full circle is Span = FullCircle().
// Arcs bound the feasible geometric areas of the placement problem (ring
// segments and inscribed-angle loci), and the SVG renderer draws them.
type Arc struct {
	C    Vec
	R    float64
	Span Interval
}

// NewArc builds the counterclockwise arc on circle (c, r) from angle lo to
// hi.
func NewArc(c Vec, r, lo, hi float64) Arc {
	return Arc{C: c, R: r, Span: NewInterval(lo, hi)}
}

// Start returns the arc's starting point.
func (a Arc) Start() Vec { return a.C.Add(FromAngle(a.Span.Lo).Scale(a.R)) }

// End returns the arc's ending point.
func (a Arc) End() Vec { return a.C.Add(FromAngle(a.Span.Hi).Scale(a.R)) }

// Mid returns the arc's midpoint.
func (a Arc) Mid() Vec { return a.C.Add(FromAngle(a.Span.Mid()).Scale(a.R)) }

// Length returns the arc length R·Δθ.
func (a Arc) Length() float64 { return a.R * a.Span.Width() }

// ContainsPoint reports whether p lies on the arc within tol of the circle
// and inside the angular span (ends inclusive).
func (a Arc) ContainsPoint(p Vec, tol float64) bool {
	d := p.Sub(a.C)
	if math.Abs(d.Len()-a.R) > tol {
		return false
	}
	if d.Len() <= Eps {
		return a.R <= tol
	}
	return a.Span.Contains(d.Angle())
}

// PointAt returns the arc point at parameter t ∈ [0, 1] along the sweep.
func (a Arc) PointAt(t float64) Vec {
	theta := a.Span.Lo + t*a.Span.Width()
	return a.C.Add(FromAngle(theta).Scale(a.R))
}

// IntersectSegment returns the points where the arc meets segment s.
func (a Arc) IntersectSegment(s Segment) []Vec {
	var out []Vec
	pts, n := CircleSegmentIntersections(Circle{C: a.C, R: a.R}, s)
	for _, p := range pts[:n] {
		if a.Span.Contains(p.Sub(a.C).Angle()) {
			out = append(out, p)
		}
	}
	return out
}

// IntersectArc returns the points where two arcs meet (0–2 points;
// overlapping concentric arcs report none).
func (a Arc) IntersectArc(b Arc) []Vec {
	var out []Vec
	pts, n := CircleCircleIntersections(Circle{C: a.C, R: a.R}, Circle{C: b.C, R: b.R})
	for _, p := range pts[:n] {
		if a.Span.Contains(p.Sub(a.C).Angle()) && b.Span.Contains(p.Sub(b.C).Angle()) {
			out = append(out, p)
		}
	}
	return out
}

// Sample returns n+1 points evenly spaced along the arc (both endpoints
// included); n must be ≥ 1.
func (a Arc) Sample(n int) []Vec {
	if n < 1 {
		n = 1
	}
	out := make([]Vec, 0, n+1)
	for i := 0; i <= n; i++ {
		out = append(out, a.PointAt(float64(i)/float64(n)))
	}
	return out
}

// ChordDistance returns the maximum deviation between the arc and its
// chord: R(1 − cos(Δθ/2)) for spans up to π, and R + sagitta beyond. Used
// to pick flattening tolerances when approximating arcs by polylines.
func (a Arc) ChordDistance() float64 {
	half := a.Span.Width() / 2
	if half >= math.Pi {
		return 2 * a.R
	}
	return a.R * (1 - math.Cos(half))
}
