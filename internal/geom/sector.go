package geom

import "math"

// SectorRing is the sector-ring region of the practical directional charging
// model (Figure 1): points p with RMin ≤ |p−Apex| ≤ RMax whose direction
// from Apex deviates from Orient by at most Alpha/2. Alpha = 2π makes it a
// full annulus; RMin = 0 degenerates to a plain sector.
type SectorRing struct {
	Apex   Vec
	Orient float64 // central orientation angle, radians
	Alpha  float64 // full opening angle, radians
	RMin   float64
	RMax   float64
}

// Contains reports whether p lies in the sector ring (boundary inclusive
// within Eps).
func (s SectorRing) Contains(p Vec) bool {
	d := p.Sub(s.Apex)
	r := d.Len()
	if r < s.RMin-Eps || r > s.RMax+Eps {
		return false
	}
	if s.Alpha >= 2*math.Pi-Eps {
		return true
	}
	if r <= Eps {
		return s.RMin <= Eps
	}
	return AbsAngleDiff(d.Angle(), s.Orient) <= s.Alpha/2+Eps
}

// ContainsDirection reports whether a point at polar angle theta (as seen
// from the apex) falls within the sector's angular opening.
func (s SectorRing) ContainsDirection(theta float64) bool {
	if s.Alpha >= 2*math.Pi-Eps {
		return true
	}
	return AbsAngleDiff(theta, s.Orient) <= s.Alpha/2+Eps
}

// AngularInterval returns the sector's opening as an angular interval.
func (s SectorRing) AngularInterval() Interval {
	if s.Alpha >= 2*math.Pi-Eps {
		return FullCircle()
	}
	return NewInterval(s.Orient-s.Alpha/2, s.Orient+s.Alpha/2)
}

// BoundaryRays returns the two straight edges of the sector ring: the
// clockwise edge (at Orient − Alpha/2) and the counterclockwise edge (at
// Orient + Alpha/2), each as the segment from radius RMin to RMax. For a
// full annulus there are no straight edges and nil is returned.
func (s SectorRing) BoundaryRays() []Segment {
	if s.Alpha >= 2*math.Pi-Eps {
		return nil
	}
	var out []Segment
	for _, theta := range []float64{s.Orient - s.Alpha/2, s.Orient + s.Alpha/2} {
		dir := FromAngle(theta)
		out = append(out, Segment{
			A: s.Apex.Add(dir.Scale(s.RMin)),
			B: s.Apex.Add(dir.Scale(s.RMax)),
		})
	}
	return out
}

// Area returns the area of the sector ring.
func (s SectorRing) Area() float64 {
	return s.Alpha / 2 * (s.RMax*s.RMax - s.RMin*s.RMin)
}

// SampleBoundary returns n points distributed along the sector ring's
// boundary (both arcs and both straight edges). Useful for randomized
// testing of containment predicates.
func (s SectorRing) SampleBoundary(n int) []Vec {
	if n <= 0 {
		return nil
	}
	out := make([]Vec, 0, n)
	lo := s.Orient - s.Alpha/2
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n)
		switch i % 4 {
		case 0: // outer arc
			out = append(out, s.Apex.Add(FromAngle(lo+t*s.Alpha).Scale(s.RMax)))
		case 1: // inner arc
			out = append(out, s.Apex.Add(FromAngle(lo+t*s.Alpha).Scale(s.RMin)))
		case 2: // clockwise edge
			out = append(out, s.Apex.Add(FromAngle(lo).Scale(s.RMin+t*(s.RMax-s.RMin))))
		default: // counterclockwise edge
			out = append(out, s.Apex.Add(FromAngle(lo+s.Alpha).Scale(s.RMin+t*(s.RMax-s.RMin))))
		}
	}
	return out
}
