package visindex

import (
	"math"
	"slices"
	"sync"

	"hipo/internal/geom"
)

// Verdict is a visibility certificate's answer to one line-of-sight query.
type Verdict uint8

const (
	// Uncertain means the query lies in the certificate's margin band (or
	// the device has no certificate): the exact predicate must decide it.
	Uncertain Verdict = iota
	// Visible means the exact predicate would report the segment clear.
	Visible
	// Blocked means the exact predicate would report the segment blocked.
	Blocked
)

// certReachPad is added to the largest charger d_max to give the reach of
// every certificate an Index builds. Queries come from the PDCS range gate
// (d ≤ d_max + geom.Eps), so the pad only has to exceed a certificate's
// margin for them to stay certifiable up to d_max.
const certReachPad = 1e-2

// certMinDist is the shortest query a certificate decides. It bounds
// orient's collinearity tolerance, Eps·scale/|s| in distance terms, by
// 1e-7·scale (see Certificate).
const certMinDist = 1e-2

// certMinSin is the least sine of the crossing angle between the query
// segment and an edge for a Blocked verdict (see Certificate).
const certMinSin = 1e-6

// certEdge is one obstacle edge as the slabs it spans see it.
type certEdge struct {
	// nx, ny is the edge line's unit normal pointing away from the device,
	// and h = n·(a − c) ≥ 0 the device's distance to that line, so
	// g(p) = n·(p − c) − h is p's signed distance beyond the line.
	nx, ny, h float64
	// rmin is the device's distance to the closed edge and len the edge's
	// length.
	rmin, len float64
}

// Certificate is the angular slab table of one device position c over the
// obstacle edges within its reach R: the §4.1.2 holes of c in a form that
// answers "can p see c?" with one pseudo-angle and a bucketed search. The
// vertices' directions from c cut the plane into slabs; an edge either
// spans a slab (crosses every ray inside it) or lies outside its open
// wedge. Each slab lists the spanning edges a verdict can depend on by
// their distance from c, so ρ(θ), the nearest crossing along direction θ,
// comes from the first few entries.
//
// Classify answers Visible or Blocked only where that is the answer of the
// exact predicate, Index.LineOfSight(p, c) (Polygon.BlocksSegmentCached
// over the obstacles). With d = |p − c| and the margin
//
//	δ = 1e-6·(4V + 3R + 1) + 1e-12·(|c|∞ + V),
//
// V the largest distance from c to a vertex of an obstacle within reach:
//
//   - Both verdicts need d ≥ certMinDist and angular clearance: every
//     event (vertex direction) k within padMax of θ either has
//     near_k ≥ d + δ, so its vertices and the edges ending there lie
//     beyond the segment, or sits at a polar gap of at least
//     (π/2)·δ/near_k from θ, which keeps them near_k·(2/π)·gap ≥ δ off
//     the ray; events farther than padMax = (π/2)·δ/rmin are as far off.
//   - Visible also requires d ≤ R − δ and p at least δ short of every
//     listed edge's line (g ≤ −δ, which implies d < ρ(θ) − δ). Then the
//     closed segment c–p is at least δ from every obstacle edge: its
//     endpoints are δ from the listed edges (c is rmin ≥ 2δ from every
//     edge), every vertex and every edge outside the wedge is δ off by
//     the clearance, unlisted spanning edges start beyond d + δ or behind
//     a listed edge that already rules Visible out, and obstacles beyond
//     reach are R − d ≥ δ away. At distance δ, segmentIntersection cannot
//     report a point: when it accepts den with
//     |den| > Eps·max(1, |s||e|), sin φ ≥ 1e-9 and the computed u and v
//     err by less than 5e-7·(|e.A − p|/|s| + |u|), so an accepted pair of
//     segments lies within
//     1e-9·(|s|+|e|) + 5e-7·(2|e.A − p| + |s| + |e|) ≤ 5.1e-7·(4V + 3R)
//     < δ/1.9 of each other. orient's Eps·max(1, L1 norms) tolerance puts
//     a "collinear" endpoint within 1.5e-9·(V + R + 1)/d ≤ 1.5e-7·(V+R+1)
//     of the segment's line, so the collinear-overlap branch needs the
//     segments within that distance too. With no contact found, the
//     predicate tests the segment's midpoint, which lies outside every
//     obstacle (c does, and the segment crosses no edge) and at least δ
//     from every edge, where containsInterior's crossing abscissae err by
//     at most 1e-15·(V + |c|∞).
//   - Blocked also requires one listed edge with g ≥ δ (so d > ρ(θ) + δ)
//     whose crossing is transversal, sin φ ≥ certMinSin, with
//     |s|·|e|·sin φ ≥ 2e-9. The ray crosses that edge at a point X at
//     least δ from both edge vertices (clearance), rmin ≥ 2δ from c and δ
//     from p. segmentIntersection then accepts den (twice its
//     Eps·max(1, |s||e|) threshold), its u and v err by at most
//     5e-10·(V + 2R) ≪ δ in length terms, the returned point is within
//     that of X, so it lies strictly inside both segments and equals no
//     endpoint under Vec.Eq: the predicate reports the obstacle blocking,
//     whatever its other edges do.
//
// Everything else is Uncertain. A device inside or within 2δ of an
// obstacle gets no certificate (nil), and a nil *Certificate answers
// Uncertain. A Certificate is immutable and safe for concurrent use.
type Certificate struct {
	c      geom.Vec
	reach  float64 // R
	margin float64 // δ
	// slabs[i].at, for i < m, are the m distinct vertex pseudo-angles in
	// [0, 4), ascending. Slab i runs from slabs[i].at to slabs[i+1].at
	// (the last one wraps to slabs[0].at + 4); without events one slab
	// covers the circle. Its spanning edges, by rmin, are
	// edges[slabs[i].start:slabs[i+1].start]; a sentinel closes the table.
	slabs []certSlab
	edges []certEdge
	// bucket[b] is the first event ≥ b/bscale: the buckets split [0, 4)
	// into a power of two of equal parts, so th·bscale and b/bscale are
	// exact. Without events there are no buckets.
	bucket []int32
	bscale float64
	// A query must clear an event by a pseudo-angle gap of padNum/near =
	// (π/2)·δ/near unless it ends before near − δ; padMax = padNum/rmin
	// bounds that gap, rmin being c's distance to the nearest edge.
	// Pseudo-angles never run ahead of polar angles, so the polar gaps are
	// at least as large.
	padNum, padMax float64
}

// certSlab is one event of a certificate and the slab it starts.
type certSlab struct {
	at float64 // the event's pseudo-angle
	// near is the least distance from c to an edge ending at a vertex in
	// the event's direction.
	near float64
	// start indexes the slab's first edge in edges, and first is that
	// edge's rmin (+Inf for an empty slab).
	start int32
	first float64
}

// Classify decides whether the open segment p–c is free of obstacles, or
// reports Uncertain when the exact predicate must decide. d must be
// |p − c| as math.Sqrt of the squared distance.
func (ct *Certificate) Classify(p geom.Vec, d float64) Verdict {
	if ct == nil || d < certMinDist {
		return Uncertain
	}
	v := p.Sub(ct.c)
	slab := 0
	if len(ct.bucket) > 0 { // there are events
		m := len(ct.slabs) - 1
		th := pseudoAngle(v)
		// i = the first event ≥ th: its bucket's first event, then a short
		// scan (a bucket holds at most one event on average).
		i := int(ct.bucket[min(int(th*ct.bscale), len(ct.bucket)-1)])
		for i < m && ct.slabs[i].at < th {
			i++
		}
		switch {
		case i < m && !(ct.slabs[i].at > th):
			slab = i // on the event's direction: the slab it starts
		case i == 0:
			slab = m - 1
		default:
			slab = i - 1
		}
		if !ct.clear(th, i, m, d) {
			return Uncertain
		}
	}
	unsure := d > ct.reach-ct.margin
	if ct.slabs[slab].first < d+ct.margin { // else no edge comes within δ
		for _, e := range ct.edges[ct.slabs[slab].start:ct.slabs[slab+1].start] {
			if e.rmin >= d+ct.margin {
				break // this edge and the rest are ≥ δ beyond p
			}
			nv := e.nx*v.X + e.ny*v.Y
			switch g := nv - e.h; {
			case g >= ct.margin:
				if nv >= certMinSin*d && nv*e.len >= 2e-9 {
					return Blocked
				}
				unsure = true
			case g > -ct.margin:
				unsure = true
			}
		}
	}
	if unsure {
		return Uncertain
	}
	return Visible
}

// clear reports whether the vertices within padMax of pseudo-angle th
// (event i is the first at or after th, of m) and the edges ending at them
// stay δ away from a query segment of length d: each such event is either
// beyond the segment, near ≥ d + δ, or at a pseudo-angle gap of at least
// (π/2)·δ/near from it.
func (ct *Certificate) clear(th float64, i, m int, d float64) bool {
	far := d + ct.margin
	for n := 0; n < m; n++ { // counterclockwise, from event i
		k, wrap := i+n, 0.0
		if k >= m {
			k, wrap = k-m, 4
		}
		e := &ct.slabs[k]
		gap := e.at + wrap - th
		if gap >= ct.padMax {
			break
		}
		if e.near < far && gap*e.near < ct.padNum {
			return false
		}
	}
	for n := 1; n <= m; n++ { // clockwise, from event i-1
		k, wrap := i-n, 0.0
		if k < 0 {
			k, wrap = k+m, 4
		}
		e := &ct.slabs[k]
		gap := th + wrap - e.at
		if gap >= ct.padMax {
			break
		}
		if e.near < far && gap*e.near < ct.padNum {
			return false
		}
	}
	return true
}

// pseudoAngle maps a nonzero direction to [0, 4), monotone in its polar
// angle like atan2 but without a transcendental call. On every quadrant
// its derivative with respect to the polar angle is 1/(|cos|+|sin|)² ∈
// [1/2, 1], so pseudo-angle gaps never exceed polar gaps.
func pseudoAngle(v geom.Vec) float64 {
	//lint:ignore nanflow callers pass directions at least certMinDist or 2δ long, so the denominator is positive
	t := v.Y / (math.Abs(v.X) + math.Abs(v.Y))
	switch {
	case v.X < 0:
		return 2 - t
	case v.Y < 0:
		return 4 + t
	default:
		return t
	}
}

// certVertex is one obstacle vertex seen from the device.
type certVertex struct {
	p   geom.Vec
	ang float64  // pseudo-angle of p − c
	dir geom.Vec // unit direction of p − c
	// rmin is the device's distance to the edge from this vertex to the
	// next one of its polygon.
	rmin float64
	ev   int // index of the vertex's event
}

// newCertificate builds the certificate of position c over the obstacles
// whose padded box comes within reach of c, or returns nil when c is
// inside an obstacle or too close to one to certify anything.
//
//hipo:hotpath
func newCertificate(ix *Index, c geom.Vec, reach float64) *Certificate {
	if ix.PointInObstacle(c) {
		return nil
	}
	near := ix.AppendObstaclesNearDisk(nil, c, reach)
	nv := 0
	for _, h := range near {
		nv += len(ix.obs[h].Shape.Vertices)
	}
	verts := make([]certVertex, 0, nv)
	vstart := make([]int, 0, len(near)+1) // near[k]'s vertices are verts[vstart[k]:vstart[k+1]]
	vmax, rmin := 0.0, reach
	for _, h := range near {
		vstart = append(vstart, len(verts))
		vs := ix.obs[h].Shape.Vertices
		for i, a := range vs {
			w := a.Sub(c)
			l := w.Len()
			if l <= geom.Eps {
				return nil // a vertex at c: no certificate anyway (rmin ≤ 2δ)
			}
			er := geom.Seg(a, vs[(i+1)%len(vs)]).DistToPoint(c)
			vmax, rmin = max(vmax, l), min(rmin, er)
			verts = append(verts, certVertex{p: a, ang: pseudoAngle(w), dir: w.Scale(1 / l), rmin: er})
		}
	}
	vstart = append(vstart, len(verts))
	margin := 1e-6*(4*vmax+3*reach+1) + 1e-12*(math.Max(math.Abs(c.X), math.Abs(c.Y))+vmax)
	if rmin <= 2*margin {
		return nil
	}
	padNum := math.Pi / 2 * margin
	ct := &Certificate{c: c, reach: reach, margin: margin, padNum: padNum, padMax: padNum / rmin}

	events := make([]float64, len(verts))
	for i, v := range verts {
		events[i] = v.ang
	}
	slices.Sort(events)
	events = slices.Compact(events)
	m := len(events)
	nSlabs := max(m, 1)
	ct.slabs = make([]certSlab, nSlabs+1)
	dirs := make([]geom.Vec, m) // a unit direction at each event
	for k, at := range events {
		ct.slabs[k] = certSlab{at: at, near: math.Inf(1)}
	}
	for k := range near {
		vs := verts[vstart[k]:vstart[k+1]]
		for i := range vs {
			v := &vs[i]
			v.ev, _ = slices.BinarySearch(events, v.ang)
			dirs[v.ev] = v.dir
			prev := vs[(i+len(vs)-1)%len(vs)].rmin // the edge ending at v
			ct.slabs[v.ev].near = min(ct.slabs[v.ev].near, v.rmin, prev)
		}
	}
	nb := 0 // no buckets without events
	if m > 0 {
		nb = 16
	}
	for nb < m {
		nb *= 2
	}
	ct.bucket, ct.bscale = make([]int32, nb), float64(nb)/4
	for b, i := 0, 0; b < nb; b++ {
		for i < m && events[i] < float64(b)/ct.bscale {
			i++
		}
		ct.bucket[b] = int32(i)
	}

	// An edge spans the slabs between its endpoints' events,
	// counterclockwise: slab ends pass through vertices.
	type spanning struct {
		e      certEdge
		si, ti int // first slab spanned, and the event it stops at
	}
	spans := make([]spanning, 0, len(verts))
	for k := range near {
		vs := verts[vstart[k]:vstart[k+1]]
		for i := range vs {
			a, b := vs[i], vs[(i+1)%len(vs)]
			if a.rmin >= reach {
				continue // no certifiable query reaches it
			}
			wa, wb := a.p.Sub(c), b.p.Sub(c)
			cr := wa.Cross(wb)
			if math.Abs(cr) <= 1e-9*wa.Len()*wb.Len() {
				// Seen edge-on: the edge subtends under 1e-9 rad, spans no
				// slab wide enough to certify, and lies outside the rest.
				continue
			}
			si, ti := a.ev, b.ev
			if cr < 0 {
				si, ti = ti, si
			}
			q := b.p.Sub(a.p)
			el := q.Len()
			//lint:ignore nanflow the edge-on test above rejected cr = 0, so a ≠ b and el > 0
			n := geom.V(-q.Y/el, q.X/el)
			h := n.Dot(wa)
			if h < 0 {
				n, h = n.Neg(), -h
			}
			spans = append(spans, spanning{certEdge{nx: n.X, ny: n.Y, h: h, rmin: a.rmin, len: el}, si, ti})
		}
	}

	// bound[j] caps the rmin of the edges slab j needs. ρ(θ) = h/(n·u) is
	// convex across a spanned slab, so its ends bound it by ρmax, computed
	// only where an edge's crossing is well conditioned at both ends
	// (n·u ≥ 1e-3). An edge starting past ρmax matters only to queries
	// with d > ρmax − δ, whose g on the bounding edge is
	// (d − ρ(θ))·sin φ > −δ: that edge already rules out Visible.
	bound := make([]float64, nSlabs)
	for j := range bound {
		bound[j] = math.Inf(1)
	}
	for _, sp := range spans {
		n := geom.V(sp.e.nx, sp.e.ny)
		for j := sp.si; j != sp.ti; j = nextEvent(j, m) {
			if cs := min(n.Dot(dirs[j]), n.Dot(dirs[nextEvent(j, m)])); cs >= 1e-3 {
				bound[j] = min(bound[j], sp.e.h/cs*(1+1e-9))
			}
		}
	}
	// Count each slab's edges into the next slab's start, prefix-sum,
	// fill, then order each slab by rmin.
	for _, sp := range spans {
		for j := sp.si; j != sp.ti; j = nextEvent(j, m) {
			if sp.e.rmin <= bound[j] {
				ct.slabs[j+1].start++
			}
		}
	}
	for j := 0; j < nSlabs; j++ {
		ct.slabs[j+1].start += ct.slabs[j].start
	}
	ct.edges = make([]certEdge, ct.slabs[nSlabs].start)
	fill := make([]int32, nSlabs)
	for j := range fill {
		fill[j] = ct.slabs[j].start
	}
	for _, sp := range spans {
		for j := sp.si; j != sp.ti; j = nextEvent(j, m) {
			if sp.e.rmin <= bound[j] {
				ct.edges[fill[j]] = sp.e
				fill[j]++
			}
		}
	}
	for j := 0; j < nSlabs; j++ {
		// Insertion sort: a slab keeps a handful of edges.
		lst := ct.edges[ct.slabs[j].start:ct.slabs[j+1].start]
		for x := 1; x < len(lst); x++ {
			for y := x; y > 0 && lst[y].rmin < lst[y-1].rmin; y-- {
				lst[y], lst[y-1] = lst[y-1], lst[y]
			}
		}
		ct.slabs[j].first = math.Inf(1)
		if len(lst) > 0 {
			ct.slabs[j].first = lst[0].rmin
		}
	}
	return ct
}

// DeviceCertificate is the visibility certificate of one device
// position, built on first use: certificates are built inside the
// parallel sweep, and only for devices some query reaches.
type DeviceCertificate struct {
	once sync.Once
	ix   *Index
	c    geom.Vec
	ct   *Certificate
}

func (dc *DeviceCertificate) build() { dc.ct = newCertificate(dc.ix, dc.c, dc.ix.certReach) }

// Get returns the certificate, nil when the position has none.
func (dc *DeviceCertificate) Get() *Certificate {
	dc.once.Do(dc.build)
	return dc.ct
}

// nextEvent steps an event index counterclockwise, wrapping at m.
func nextEvent(j, m int) int {
	if j++; j == m {
		return 0
	}
	return j
}

// Certificates returns the visibility certificate of every point of pts,
// for queries up to the largest charger d_max of the scenario the index
// was built from. Certificates are memoized by exact position bits like
// Shadow and EventAngles, and shared by every caller — the charger types
// of a solve, the warm solves of a session for devices that have not
// moved — but each call keeps only the positions it asks for, so the memo
// never holds more than one device set.
//
//hipo:hotpath
func (ix *Index) Certificates(pts []geom.Vec) []*DeviceCertificate {
	out := make([]*DeviceCertificate, len(pts))
	ix.certMu.Lock()
	defer ix.certMu.Unlock()
	next := make(map[posKey]*DeviceCertificate, len(pts))
	for i, p := range pts {
		k := keyOf(p)
		dc, ok := next[k]
		if !ok {
			if dc, ok = ix.certs[k]; !ok {
				dc = &DeviceCertificate{ix: ix, c: p}
			}
			next[k] = dc
		}
		out[i] = dc
	}
	ix.certs = next
	return out
}
