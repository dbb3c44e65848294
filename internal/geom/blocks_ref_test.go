package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The two-pass line-of-sight predicate that BlocksSegmentCached replaced,
// kept verbatim (renamed with a ref prefix, together with the helpers whose
// arithmetic it rewrote) as the differential reference for the one-pass
// kernel: every production caller of the predicate — the visibility index,
// brute-force visibility, the seed PDCS pipeline — shares the new body, so
// only an independent copy can catch it drifting.

func refBlocksSegment(p Polygon, s Segment) bool {
	lo, hi := p.BoundingBox()
	return refBlocksSegmentEdgesBB(p, s, p.Edges(), lo, hi)
}

func refBlocksSegmentEdgesBB(p Polygon, s Segment, edges []Segment, lo, hi Vec) bool {
	if s.Dir().Len2() <= 4*Eps*Eps && s.Len() <= Eps {
		return false
	}
	if (s.A.X < lo.X-Eps && s.B.X < lo.X-Eps) || (s.A.X > hi.X+Eps && s.B.X > hi.X+Eps) ||
		(s.A.Y < lo.Y-Eps && s.B.Y < lo.Y-Eps) || (s.A.Y > hi.Y+Eps && s.B.Y > hi.Y+Eps) {
		return false
	}
	for _, e := range edges {
		if refSegmentsCrossInterior(s, e) {
			return true
		}
	}
	return refInteriorSampleBlocked(p, s, edges)
}

func refInteriorSampleBlocked(p Polygon, s Segment, edges []Segment) bool {
	var tsBuf [12]float64
	ts := append(tsBuf[:0], 0, 1)
	d := s.Dir()
	l2 := d.Len2()
	if l2 <= 0 {
		return p.containsInterior(s.A)
	}
	for _, e := range edges {
		if q, ok := refSegmentIntersection(s, e); ok {
			t := q.Sub(s.A).Dot(d) / l2
			ts = append(ts, math.Max(0, math.Min(1, t)))
		}
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

func refSegmentsCrossInterior(s, t Segment) bool {
	p, ok := refSegmentIntersection(s, t)
	if !ok {
		if refOrient(s.A, s.B, t.A) == 0 && refOrient(s.A, s.B, t.B) == 0 {
			return collinearInteriorOverlap(s, t)
		}
		return false
	}
	if p.Eq(s.A) || p.Eq(s.B) || p.Eq(t.A) || p.Eq(t.B) {
		return false
	}
	return true
}

func refSegmentIntersection(s, t Segment) (Vec, bool) {
	r := s.Dir()
	q := t.Dir()
	den := r.Cross(q)
	scale := math.Max(1, r.Len()*q.Len())
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
	return s.At(math.Max(0, math.Min(1, u))), true
}

func refOrient(a, b, c Vec) int {
	v := b.Sub(a)
	w := c.Sub(a)
	x := v.Cross(w)
	scale := math.Max(1, math.Max(math.Abs(v.X)+math.Abs(v.Y), math.Abs(w.X)+math.Abs(w.Y)))
	switch {
	case x > Eps*scale:
		return 1
	case x < -Eps*scale:
		return -1
	default:
		return 0
	}
}

func refClosestPoint(s Segment, p Vec) Vec {
	d := s.Dir()
	l2 := d.Len2()
	if l2 < Eps*Eps {
		return s.A
	}
	t := p.Sub(s.A).Dot(d) / l2
	t = math.Max(0, math.Min(1, t))
	return s.At(t)
}

// checkBlocksAgainstRef compares every entry point of the one-pass
// predicate — uncached, cached edge lengths, and nil lengths — with the
// two-pass reference on one (polygon, segment) pair.
func checkBlocksAgainstRef(t testing.TB, p Polygon, s Segment) bool {
	t.Helper()
	want := refBlocksSegment(p, s)
	lo, hi := p.BoundingBox()
	sl := s.Dir().Len()
	got := [3]bool{
		p.BlocksSegment(s),
		p.BlocksSegmentCached(s, sl, p.EdgeLens(), lo, hi),
		p.BlocksSegmentCached(s, sl, nil, lo, hi),
	}
	for k, g := range got {
		if g != want {
			t.Fatalf("entry point %d: blocks(%v, %v) = %v, two-pass reference %v", k, p.Vertices, s, g, want)
		}
	}
	return want
}

// refProbePoints returns, for polygon p, the points whose pairings exercise
// the predicate's edge cases: vertices, edge midpoints and quarter points,
// collinear extensions past each vertex, the centroid, points just inside
// and outside each vertex (offsets well below and above Eps), far points,
// and non-finite coordinates.
func refProbePoints(p Polygon) []Vec {
	vs := p.Vertices
	n := len(vs)
	lo, hi := p.BoundingBox()
	span := math.Max(hi.X-lo.X, hi.Y-lo.Y)
	var out []Vec
	g := p.Centroid()
	out = append(out, g)
	for i, a := range vs {
		b := vs[(i+1)%n]
		out = append(out, a, Lerp(a, b, 0.5), Lerp(a, b, 0.25),
			Lerp(a, b, -0.5), Lerp(a, b, 1.5), // collinear runs along the edge
			a.Add(a.Sub(g).Scale(0.25)), // just outside the vertex
			Lerp(a, g, 0.1),             // just inside the vertex
			a.Add(V(1e-12*span, 0)), a.Add(V(0, 1e-7*span)))
	}
	out = append(out, lo.Sub(V(span, span)), hi.Add(V(span, 0)),
		V(math.NaN(), g.Y), V(g.X, math.Inf(1)), V(math.Inf(-1), math.Inf(1)))
	return out
}

func refTestPolygons() []Polygon {
	square := Rect(1, 1, 3, 3)
	lShape := Poly(V(0, 0), V(4, 0), V(4, 1), V(1, 1), V(1, 4), V(0, 4))
	star := Poly(V(0, 0), V(4, 0), V(2, 1), V(4, 4), V(0, 4), V(1, 2))
	tri := Poly(V(0, 0), V(5, 0), V(2, 3))
	// A "comb" whose teeth a horizontal ray can enter and leave only
	// through vertices.
	comb := Poly(V(0, 0), V(6, 0), V(6, 2), V(5, 1), V(4, 2), V(3, 1), V(2, 2), V(1, 1), V(0, 2))
	polys := []Polygon{square, lShape, star, tri, comb}
	// Far from the origin and at 1e7 scale, where the relative Eps scaling
	// of orient and SegmentIntersection matters.
	for _, p := range []Polygon{square, star, comb} {
		polys = append(polys, p.Translate(V(1e7, -1e7)), p.Scale(1e7))
	}
	return polys
}

// TestBlocksSegmentMatchesTwoPassReference pairs every probe point with
// every other (itself included, for zero-length segments) and with two
// tiny offsets on convex, concave and far/large polygons, plus
// randomized simple polygons with rays between their vertices.
func TestBlocksSegmentMatchesTwoPassReference(t *testing.T) {
	blocked, clear := 0, 0
	tally := func(b bool) {
		if b {
			blocked++
		} else {
			clear++
		}
	}
	for _, p := range refTestPolygons() {
		pts := refProbePoints(p)
		for _, a := range pts {
			for _, b := range pts {
				tally(checkBlocksAgainstRef(t, p, Seg(a, b)))
			}
			// Below Eps, and between Eps and the 2·Eps length screen.
			tally(checkBlocksAgainstRef(t, p, Seg(a, a.Add(V(3e-10, -2e-10)))))
			tally(checkBlocksAgainstRef(t, p, Seg(a, a.Add(V(1.5e-9, 0)))))
		}
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		p := RandomSimplePolygon(rng, randVec(rng, 20), 1, 5, 3+rng.Intn(8))
		vs := p.Vertices
		for k := 0; k < 20; k++ {
			a := vs[rng.Intn(len(vs))]
			b := vs[rng.Intn(len(vs))]
			if k%2 == 1 {
				b = randVec(rng, 30)
			}
			tally(checkBlocksAgainstRef(t, p, Seg(a, b)))
		}
	}
	if blocked == 0 || clear == 0 {
		t.Fatalf("degenerate case mix: %d blocked, %d clear", blocked, clear)
	}
}

// FuzzBlocksSegment differentially checks the one-pass predicate against
// the two-pass reference on arbitrary (unbounded, possibly non-finite)
// quadrilaterals and segments. snap selects segment endpoints from the
// polygon's vertices, so the fuzzer reaches vertex-through and edge-run
// rays that random coordinates almost never hit.
func FuzzBlocksSegment(f *testing.F) {
	f.Add(1.0, 1.0, 3.0, 1.0, 3.0, 3.0, 1.0, 3.0, 0.0, 2.0, 4.0, 2.0, uint8(0))
	f.Add(1.0, 1.0, 3.0, 1.0, 3.0, 3.0, 1.0, 3.0, 0.0, 0.0, 0.0, 0.0, uint8(0x29)) // vertex 0 to vertex 2
	f.Add(0.0, 0.0, 4.0, 0.0, 2.0, 1.0, 0.0, 4.0, 5.0, 0.0, -1.0, 0.0, uint8(0))   // along a concave edge
	f.Add(1e7, 1e7, 3e7, 1e7, 3e7, 3e7, 1e7, 3e7, 0.0, 0.0, 4e7, 4e7, uint8(0))
	f.Add(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, math.NaN(), 0.5, 2.0, 0.5, uint8(0))
	f.Add(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, math.Inf(-1), 0.5, math.Inf(1), 0.5, uint8(0))
	f.Add(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.5, 0.5, 0.5+1e-10, 0.5, uint8(0))
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, x2, y2, x3, y3, ax, ay, bx, by float64, snap uint8) {
		p := Poly(V(x0, y0), V(x1, y1), V(x2, y2), V(x3, y3))
		a, b := V(ax, ay), V(bx, by)
		if snap&1 != 0 {
			a = p.Vertices[(snap>>1)&3]
		}
		if snap&8 != 0 {
			b = p.Vertices[(snap>>4)&3]
		}
		checkBlocksAgainstRef(t, p, Seg(a, b))
	})
}

// minMaxGrid is the operand grid on which every builtin min/max rewrite is
// compared with its math.Min/math.Max original.
var minMaxGrid = []float64{0, math.Copysign(0, -1), 1, -1, 1e-300, math.Inf(1), math.Inf(-1), math.NaN()}

// sameFloat reports bit equality, treating any two NaNs as equal (NaN
// payloads are not part of the contract).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameVec(a, b Vec) bool { return sameFloat(a.X, b.X) && sameFloat(a.Y, b.Y) }

// gridTuples calls fn with every k-tuple over minMaxGrid.
func gridTuples(k int, fn func(v []float64)) {
	v := make([]float64, k)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			fn(v)
			return
		}
		for _, x := range minMaxGrid {
			v[i] = x
			rec(i + 1)
		}
	}
	rec(0)
}

// TestMinMaxRewritesMatchMath compares each function whose math.Min/Max
// calls became builtins with a verbatim math.* copy over every operand
// combination from {±0, ±1, 1e-300, ±Inf, NaN}: ClosestPoint (segment and
// point coordinates), orient (all three points), SegmentIntersection (the
// grid on one segment against fixed and grid-valued partners), and the
// contact-parameter clamp inside BlocksSegment via the reference.
func TestMinMaxRewritesMatchMath(t *testing.T) {
	gridTuples(6, func(v []float64) {
		s := Seg(V(v[0], v[1]), V(v[2], v[3]))
		q := V(v[4], v[5])
		if got, want := s.ClosestPoint(q), refClosestPoint(s, q); !sameVec(got, want) {
			t.Fatalf("ClosestPoint(%v, %v) = %v, math form %v", s, q, got, want)
		}
		a, b, c := V(v[0], v[1]), V(v[2], v[3]), V(v[4], v[5])
		if got, want := orient(a, b, c), refOrient(a, b, c); got != want {
			t.Fatalf("orient(%v, %v, %v) = %d, math form %d", a, b, c, got, want)
		}
	})
	partners := []Segment{Seg(V(0, 0), V(1, 1)), Seg(V(-1, 1), V(1, -1)), Seg(V(0, 0), V(0, 0))}
	gridTuples(4, func(v []float64) {
		s := Seg(V(v[0], v[1]), V(v[2], v[3]))
		check := func(s, u Segment) {
			gp, gok := SegmentIntersection(s, u)
			wp, wok := refSegmentIntersection(s, u)
			if gok != wok || !sameVec(gp, wp) {
				t.Fatalf("SegmentIntersection(%v, %v) = %v %v, math form %v %v", s, u, gp, gok, wp, wok)
			}
		}
		for _, u := range partners {
			check(s, u)
			check(u, s)
		}
		gridTuples(4, func(w []float64) {
			check(s, Seg(V(w[0], w[1]), V(w[2], w[3])))
		})
		checkBlocksAgainstRef(t, Rect(-1, -1, 1, 1), s)
	})
}
