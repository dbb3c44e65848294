package geom

import "math"

// Circle is the circle centered at C with radius R.
type Circle struct {
	C Vec
	R float64
}

// ContainsPoint reports whether p lies inside or on the circle (within Eps).
func (c Circle) ContainsPoint(p Vec) bool {
	return c.C.Dist(p) <= c.R+Eps
}

// OnBoundary reports whether p lies on the circle boundary within tol.
func (c Circle) OnBoundary(p Vec, tol float64) bool {
	return math.Abs(c.C.Dist(p)-c.R) <= tol
}

// PointAt returns the boundary point at polar angle theta.
func (c Circle) PointAt(theta float64) Vec {
	return c.C.Add(FromAngle(theta).Scale(c.R))
}

// CircleCircleIntersections returns the intersection points of two circles
// in pts[:n] (n = 0, 1, or 2). Coincident circles report no points. The
// fixed-size result keeps the hot generation loops free of allocation.
func CircleCircleIntersections(a, b Circle) (pts [2]Vec, n int) {
	d := a.C.Dist(b.C)
	if d <= Eps {
		return pts, 0 // concentric (or coincident): no isolated intersections
	}
	if d > a.R+b.R+Eps || d < math.Abs(a.R-b.R)-Eps {
		return pts, 0
	}
	// Distance from a.C to the radical line along the center line.
	x := (d*d + a.R*a.R - b.R*b.R) / (2 * d)
	h2 := a.R*a.R - x*x
	if h2 < 0 {
		h2 = 0
	}
	h := math.Sqrt(h2)
	dir := b.C.Sub(a.C).Scale(1 / d)
	mid := a.C.Add(dir.Scale(x))
	if h <= Eps {
		pts[0] = mid
		return pts, 1
	}
	off := dir.Perp().Scale(h)
	pts[0], pts[1] = mid.Add(off), mid.Sub(off)
	return pts, 2
}

// CircleSegmentIntersections returns the points where circle c meets the
// closed segment s in pts[:n] (n = 0, 1, or 2), in increasing segment
// parameter.
func CircleSegmentIntersections(c Circle, s Segment) (pts [2]Vec, n int) {
	d := s.Dir()
	f := s.A.Sub(c.C)
	aa := d.Len2()
	if aa < Eps*Eps {
		if c.OnBoundary(s.A, Eps) {
			pts[0] = s.A
			return pts, 1
		}
		return pts, 0
	}
	bb := 2 * f.Dot(d)
	cc := f.Len2() - c.R*c.R
	disc := bb*bb - 4*aa*cc
	if disc < 0 {
		// Allow a tangency within tolerance.
		if disc > -Eps*math.Max(1, aa) {
			disc = 0
		} else {
			return pts, 0
		}
	}
	sq := math.Sqrt(disc)
	const tol = 1e-9
	for _, t := range [2]float64{(-bb - sq) / (2 * aa), (-bb + sq) / (2 * aa)} {
		if t < -tol || t > 1+tol {
			continue
		}
		p := s.At(math.Max(0, math.Min(1, t)))
		if n == 1 && pts[0].Eq(p) {
			continue
		}
		pts[n] = p
		n++
	}
	return pts, n
}

// CircleLineIntersections returns the points where circle c meets the
// infinite line through a and b in pts[:n] (n = 0, 1, or 2).
func CircleLineIntersections(c Circle, a, b Vec) (pts [2]Vec, n int) {
	d := b.Sub(a)
	f := a.Sub(c.C)
	aa := d.Len2()
	if aa < Eps*Eps {
		return pts, 0
	}
	bb := 2 * f.Dot(d)
	cc := f.Len2() - c.R*c.R
	disc := bb*bb - 4*aa*cc
	if disc < 0 {
		return pts, 0
	}
	sq := math.Sqrt(disc)
	t1 := (-bb - sq) / (2 * aa)
	t2 := (-bb + sq) / (2 * aa)
	pts[0] = Lerp(a, b, t1)
	if sq <= Eps {
		return pts, 1
	}
	pts[1] = Lerp(a, b, t2)
	return pts, 2
}

// InscribedArcCircles returns the two circles through points a and b on
// which a chord ab subtends an inscribed (circumferential) angle of alpha
// radians, 0 < alpha < π. These are the loci used by Algorithm 2 step 5:
// every point on the major arc of each circle sees ab under angle alpha.
// If a and b coincide (within Eps) no circle exists.
func InscribedArcCircles(a, b Vec, alpha float64) []Circle {
	d := a.Dist(b)
	if d <= Eps || alpha <= Eps || alpha >= math.Pi-Eps {
		// alpha = π degenerates to the segment ab itself.
		return nil
	}
	r := d / (2 * math.Sin(alpha))
	// Center offset from chord midpoint along the perpendicular.
	h2 := r*r - d*d/4
	if h2 < 0 {
		h2 = 0
	}
	h := math.Sqrt(h2)
	mid := Lerp(a, b, 0.5)
	n := b.Sub(a).Unit().Perp()
	return []Circle{
		{C: mid.Add(n.Scale(h)), R: r},
		{C: mid.Sub(n.Scale(h)), R: r},
	}
}
