package geom

import (
	"fmt"
	"math"
)

// Polygon is a simple polygon given by its vertices in order (either
// winding). The closing edge from the last vertex back to the first is
// implicit. Obstacles in HIPO are polygons of arbitrary shape (Section 3.1).
type Polygon struct {
	Vertices []Vec
}

// Poly builds a polygon from a vertex list.
func Poly(vs ...Vec) Polygon { return Polygon{Vertices: vs} }

// Validate returns an error if the polygon has fewer than three vertices or
// repeated consecutive vertices.
func (p Polygon) Validate() error {
	n := len(p.Vertices)
	if n < 3 {
		return fmt.Errorf("geom: polygon needs at least 3 vertices, got %d", n)
	}
	for i, v := range p.Vertices {
		w := p.Vertices[(i+1)%n]
		if v.Eq(w) {
			return fmt.Errorf("geom: polygon has coincident consecutive vertices at index %d", i)
		}
	}
	return nil
}

// Edges returns the polygon's edges including the closing edge.
func (p Polygon) Edges() []Segment {
	n := len(p.Vertices)
	out := make([]Segment, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Segment{p.Vertices[i], p.Vertices[(i+1)%n]})
	}
	return out
}

// Area returns the unsigned area of the polygon.
func (p Polygon) Area() float64 {
	return math.Abs(p.SignedArea())
}

// SignedArea returns the signed area (positive for counterclockwise
// winding).
func (p Polygon) SignedArea() float64 {
	n := len(p.Vertices)
	if n < 3 {
		return 0
	}
	s := 0.0
	for i := 0; i < n; i++ {
		a := p.Vertices[i]
		b := p.Vertices[(i+1)%n]
		s += a.Cross(b)
	}
	return s / 2
}

// Centroid returns the centroid of the polygon (vertex mean for degenerate
// polygons).
func (p Polygon) Centroid() Vec {
	a := p.SignedArea()
	n := len(p.Vertices)
	if math.Abs(a) < Eps || n < 3 {
		var c Vec
		for _, v := range p.Vertices {
			c = c.Add(v)
		}
		if n > 0 {
			c = c.Scale(1 / float64(n))
		}
		return c
	}
	var c Vec
	for i := 0; i < n; i++ {
		u := p.Vertices[i]
		w := p.Vertices[(i+1)%n]
		cr := u.Cross(w)
		c = c.Add(u.Add(w).Scale(cr))
	}
	return c.Scale(1 / (6 * a))
}

// ContainsPoint reports whether q is strictly inside or on the boundary of
// the polygon, using the even-odd (crossing) rule.
func (p Polygon) ContainsPoint(q Vec) bool {
	if p.OnBoundary(q) {
		return true
	}
	return p.containsInterior(q)
}

// ContainsInterior reports whether q is strictly inside the polygon (points
// on the boundary return false).
func (p Polygon) ContainsInterior(q Vec) bool {
	if p.OnBoundary(q) {
		return false
	}
	return p.containsInterior(q)
}

func (p Polygon) containsInterior(q Vec) bool {
	n := len(p.Vertices)
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		a := p.Vertices[i]
		b := p.Vertices[j]
		if (a.Y > q.Y) != (b.Y > q.Y) {
			xi := (b.X-a.X)*(q.Y-a.Y)/(b.Y-a.Y) + a.X
			if q.X < xi {
				inside = !inside
			}
		}
	}
	return inside
}

// OnBoundary reports whether q lies on an edge of the polygon within Eps.
// It walks the edges in Edges() order without materializing them, so the
// point-in-obstacle test behind every feasibility query allocates nothing.
func (p Polygon) OnBoundary(q Vec) bool {
	n := len(p.Vertices)
	for i := 0; i < n; i++ {
		if (Segment{p.Vertices[i], p.Vertices[(i+1)%n]}).ContainsPoint(q) {
			return true
		}
	}
	return false
}

// IntersectsSegment reports whether segment s touches the polygon boundary
// or has an endpoint inside the polygon. Like OnBoundary it walks the
// edges in place and allocates nothing.
func (p Polygon) IntersectsSegment(s Segment) bool {
	n := len(p.Vertices)
	for i := 0; i < n; i++ {
		if SegmentsIntersect(Segment{p.Vertices[i], p.Vertices[(i+1)%n]}, s) {
			return true
		}
	}
	return p.containsInterior(s.A) || p.containsInterior(s.B)
}

// BlocksSegment reports whether the polygon blocks the open segment s: the
// segment passes through the polygon's interior, or runs along/through its
// boundary other than merely touching at the segment's own endpoints. This
// is the line-of-sight predicate of Equation (1): a charging ray that only
// grazes an obstacle corner is not blocked, while one entering the obstacle
// is. Like OnBoundary it walks the edges in place and allocates nothing.
func (p Polygon) BlocksSegment(s Segment) bool {
	lo, hi := p.BoundingBox()
	return p.BlocksSegmentCached(s, s.Dir().Len(), nil, lo, hi)
}

// EdgeLens returns Dir().Len() of every edge, in Edges() order: the
// per-edge lengths BlocksSegmentCached takes.
func (p Polygon) EdgeLens() []float64 {
	n := len(p.Vertices)
	out := make([]float64, n)
	for i := range out {
		out[i] = p.Vertices[(i+1)%n].Sub(p.Vertices[i]).Len()
	}
	return out
}

// BlocksSegmentCached is BlocksSegment with its per-ray and per-polygon
// constants supplied by the caller: sl must be exactly s.Dir().Len(), lens
// exactly p.EdgeLens() (or nil, to compute each edge's length in place),
// and lo, hi exactly p.BoundingBox(). Hot paths that test one ray against
// many polygons and many rays against one polygon (the visibility index
// walks, viewpoint batching) cache them, so no edge pays a Hypot; the
// answer is identical to BlocksSegment by construction.
//
// Each edge's intersection with s is computed once. An interior crossing
// or collinear interior overlap blocks at once; otherwise the contact
// parameters are collected, because the segment may still pass through the
// interior touching the boundary only at vertices (entering through one
// vertex and leaving through another) or lie entirely inside: the midpoint
// of every sub-interval between contacts is then tested for interior
// containment.
func (p Polygon) BlocksSegmentCached(s Segment, sl float64, lens []float64, lo, hi Vec) bool {
	d := s.Dir()
	l2 := d.Len2()
	// Degenerate-segment guard. The l2 screen is decisive when it fails:
	// computed |s|² > 4·Eps² forces the true length above ~2·Eps, so the
	// rounded length is certainly above Eps.
	if l2 <= 4*Eps*Eps && sl <= Eps {
		return false
	}
	// Cheap bounding-box rejection: line-of-sight tests dominate solver
	// time and most segments are nowhere near most obstacles. Each
	// conjunction is the branch-only form of max(A,B) < t / min(A,B) > t,
	// equivalent for every input including NaN (any NaN coordinate fails
	// both forms).
	if (s.A.X < lo.X-Eps && s.B.X < lo.X-Eps) || (s.A.X > hi.X+Eps && s.B.X > hi.X+Eps) ||
		(s.A.Y < lo.Y-Eps && s.B.Y < lo.Y-Eps) || (s.A.Y > hi.Y+Eps && s.B.Y > hi.Y+Eps) {
		return false
	}
	// The stack buffer covers typical contact counts; append spills to the
	// heap only for segments grazing many edges.
	var tsBuf [12]float64
	ts := append(tsBuf[:0], 0, 1)
	vs := p.Vertices
	for i, a := range vs {
		b := vs[0]
		if i+1 < len(vs) {
			b = vs[i+1]
		}
		e := Segment{a, b}
		var el float64
		if lens != nil {
			el = lens[i]
		} else {
			el = e.Dir().Len()
		}
		q, ok := segmentIntersection(s, e, sl, el)
		if !ok {
			// No unique point, but the two may still overlap collinearly.
			if orient(s.A, s.B, a) == 0 && orient(s.A, s.B, b) == 0 && collinearInteriorOverlap(s, e) {
				return true
			}
			continue
		}
		if !q.Eq(s.A) && !q.Eq(s.B) && !q.Eq(a) && !q.Eq(b) {
			return true
		}
		ts = append(ts, max(0, min(1, q.Sub(s.A).Dot(d)/l2)))
	}
	if l2 <= 0 {
		// Degenerate zero-length probe: a single point, blocked iff it sits
		// strictly inside; the contact parameters above divided by zero.
		return p.containsInterior(s.A)
	}
	sortFloats(ts)
	for i := 0; i+1 < len(ts); i++ {
		if ts[i+1]-ts[i] < 1e-9 {
			continue
		}
		mid := s.At((ts[i] + ts[i+1]) / 2)
		if p.containsInterior(mid) {
			return true
		}
	}
	return false
}

func sortFloats(xs []float64) {
	// Insertion sort: the slices here have a handful of elements.
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// BoundingBox returns the axis-aligned bounding box of the polygon as
// (min, max) corners.
func (p Polygon) BoundingBox() (Vec, Vec) {
	if len(p.Vertices) == 0 {
		return Vec{}, Vec{}
	}
	lo := p.Vertices[0]
	hi := p.Vertices[0]
	for _, v := range p.Vertices[1:] {
		lo.X = math.Min(lo.X, v.X)
		lo.Y = math.Min(lo.Y, v.Y)
		hi.X = math.Max(hi.X, v.X)
		hi.Y = math.Max(hi.Y, v.Y)
	}
	return lo, hi
}

// Translate returns a copy of the polygon shifted by d.
func (p Polygon) Translate(d Vec) Polygon {
	vs := make([]Vec, len(p.Vertices))
	for i, v := range p.Vertices {
		vs[i] = v.Add(d)
	}
	return Polygon{Vertices: vs}
}

// Scale returns a copy of the polygon scaled by s about the origin.
func (p Polygon) Scale(s float64) Polygon {
	vs := make([]Vec, len(p.Vertices))
	for i, v := range p.Vertices {
		vs[i] = v.Scale(s)
	}
	return Polygon{Vertices: vs}
}

// Rect returns the axis-aligned rectangle with corners (x0,y0) and (x1,y1).
func Rect(x0, y0, x1, y1 float64) Polygon {
	return Poly(V(x0, y0), V(x1, y0), V(x1, y1), V(x0, y1))
}

// RegularPolygon returns the regular n-gon centered at c with circumradius
// r, first vertex at polar angle phase.
func RegularPolygon(c Vec, r float64, n int, phase float64) Polygon {
	vs := make([]Vec, n)
	for i := 0; i < n; i++ {
		theta := phase + 2*math.Pi*float64(i)/float64(n)
		vs[i] = c.Add(FromAngle(theta).Scale(r))
	}
	return Polygon{Vertices: vs}
}
