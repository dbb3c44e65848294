package visindex

import (
	"math"
	"sync"
	"sync/atomic"

	"hipo/internal/geom"
)

// Viewpoint batches the line-of-sight queries whose origins share a small
// tile and whose targets come from a fixed list (the scenario's devices):
// the obstacles reachable from anywhere in the tile are collected once per
// tile, and per target they are narrowed — lazily, on the first ray to
// that target — to the ones whose padded box meets the capsule swept by
// every possible tile→target segment. Most (tile, target) pairs end up
// with an empty list, which answers all their rays in O(1); the rest test
// only their few capsule survivors. One spatial collection per viewpoint
// replaces one DDA grid walk per ray.
//
// The correctness contract matches the Index: collection and capsule
// filtering only narrow the candidate set conservatively (padded boxes,
// slack-inflated capsules), and the final answer is always the exact
// Polygon.BlocksSegment predicate, so Viewpoint answers agree bit for bit
// with Index.LineOfSight and the brute-force scan. Rays whose origin
// leaves the tile or whose target exceeds rmax fall back to the per-ray
// grid walk. FuzzBatchedLOS enforces the contract differentially.
//
// A Viewpoint is immutable apart from its atomically published memo
// entries and is safe for concurrent use: duplicate concurrent memo builds
// compute identical slices, so which publication wins never affects
// results.
type Viewpoint struct {
	ix      *Index
	center  geom.Vec
	targets []geom.Vec
	// slack bounds |origin − center|; rmax bounds |target − origin|.
	slack, rmax float64
	cand        []int32
	// memo[t] is nil until the first ray to target t, then the capsule
	// survivors for (tile, t) — empty meaning no obstacle can block any
	// in-envelope ray to t.
	memo []atomic.Pointer[[]int32]
	// aux is a caller-defined per-tile payload published lazily by
	// AuxDevices; see that method for the determinism contract.
	aux atomic.Pointer[[]int32]
}

// AuxDevices returns this tile's memoized auxiliary index list; ok is
// false until the first SetAuxDevices. PDCS eligibility scans use the list
// to narrow each tile's device scan once instead of filtering the device
// set at every swept position.
func (vp *Viewpoint) AuxDevices() (lst []int32, ok bool) {
	if p := vp.aux.Load(); p != nil {
		return *p, true
	}
	return nil, false
}

// SetAuxDevices publishes the tile's auxiliary index list and returns it.
// The list must be a pure function of the tile envelope (Envelope), so
// concurrent duplicate builds are identical and the publication race is
// benign, and conservative: callers use it as a prefilter, so it must
// include every index whose exact predicate could accept any point within
// slack of the center.
func (vp *Viewpoint) SetAuxDevices(lst []int32) []int32 {
	vp.aux.Store(&lst)
	return lst
}

// Envelope reports the tile envelope every batched origin lies in: the
// disk of radius slack around center.
func (vp *Viewpoint) Envelope() (center geom.Vec, slack float64) {
	return vp.center, vp.slack
}

// NewViewpoint collects the obstacles that can block any segment whose
// origin lies within slack of center and whose length is at most rmax,
// and prepares the per-target memo table.
//
//hipo:hotpath
func (ix *Index) NewViewpoint(center geom.Vec, slack, rmax float64, targets []geom.Vec) *Viewpoint {
	vp := &Viewpoint{ix: ix, center: center, targets: targets, slack: slack, rmax: rmax}
	// Any blocking obstacle touches the segment, every point of which is
	// within slack+rmax of center; the padded boxes absorb predicate
	// tolerances.
	vp.cand = ix.AppendObstaclesNearDisk(nil, center, slack+rmax)
	vp.memo = make([]atomic.Pointer[[]int32], len(targets))
	return vp
}

// survivors returns the candidates whose padded box comes within slack of
// the center→target segment. Every point of any origin→target segment
// with the origin inside the tile lies within slack of that spine, so the
// survivor list covers every obstacle that can block any in-envelope ray
// to the target.
func (vp *Viewpoint) survivors(t int) *[]int32 {
	if sur := vp.memo[t].Load(); sur != nil {
		return sur
	}
	b := vp.targets[t]
	s := vp.slack
	sur := []int32{}
	for _, h := range vp.cand {
		// Inflating the box by the slack (Minkowski sum with a square ⊇
		// sum with a disk) over-approximates "within slack of the box".
		lo := vp.ix.boxLo[h].Sub(geom.V(s, s))
		hi := vp.ix.boxHi[h].Add(geom.V(s, s))
		if _, _, ok := clipToBox(vp.center, b, lo, hi); ok {
			sur = append(sur, h)
		}
	}
	vp.memo[t].Store(&sur)
	return &sur
}

// LineOfSightTo reports whether the open segment from a to target t is
// free of obstacles, bit-for-bit identical to
// Index.LineOfSight(a, targets[t]).
func (vp *Viewpoint) LineOfSightTo(t int, a geom.Vec) bool {
	b := vp.targets[t]
	if b.Sub(a).Len2() > vp.rmax*vp.rmax || a.Sub(vp.center).Len2() > vp.slack*vp.slack {
		// Outside the batched envelope: the candidate set does not cover
		// this ray, answer it with the ordinary grid walk.
		return vp.ix.LineOfSight(a, b)
	}
	sur := *vp.survivors(t)
	if len(sur) == 0 {
		return true
	}
	var seg geom.Segment
	var sl float64
	made := false
	for _, h := range sur {
		if !segIntersectsBox(a, b, vp.ix.boxLo[h], vp.ix.boxHi[h]) {
			continue
		}
		if !made {
			seg = geom.Seg(a, b)
			sl = seg.Dir().Len()
			made = true
		}
		if vp.ix.obs[h].Shape.BlocksSegmentCached(seg, sl, vp.ix.lens[h], vp.ix.bbLo[h], vp.ix.bbHi[h]) {
			return false
		}
	}
	return true
}

// ViewpointGrid memoizes Viewpoints over a uniform tiling of the plane:
// At(p) returns the (lazily built, concurrently shared) Viewpoint of p's
// tile. Tiles are pure functions of the index, the target list, and the
// tile coordinates, so concurrent duplicate builds are identical and
// results never depend on which build wins the LoadOrStore race.
type ViewpointGrid struct {
	ix      *Index
	targets []geom.Vec
	rmax    float64
	tile    float64
	m       sync.Map // [2]int32 → *Viewpoint
}

// NewViewpointGrid prepares a viewpoint tiling for rays of length at most
// rmax (which must be positive) toward the fixed target list.
func (ix *Index) NewViewpointGrid(rmax float64, targets []geom.Vec) *ViewpointGrid {
	// Tile span rmax/8: small enough that the slack-inflated capsules stay
	// tight around each tile→target spine (most (tile, target) memos come up
	// empty and answer their rays in O(1)), large enough that thousands of
	// clustered query points share a few hundred tiles.
	return &ViewpointGrid{ix: ix, targets: targets, rmax: rmax, tile: rmax / 8}
}

// At returns the Viewpoint batching rays of length ≤ rmax from p's tile.
func (g *ViewpointGrid) At(p geom.Vec) *Viewpoint {
	//lint:ignore nanflow tile is set once in NewViewpointGrid to a fixed positive fraction of rmax, which is required positive, hence strictly positive
	tx := int32(math.Floor(p.X / g.tile))
	//lint:ignore nanflow tile is strictly positive for the same reason as above
	ty := int32(math.Floor(p.Y / g.tile))
	key := [2]int32{tx, ty}
	if v, ok := g.m.Load(key); ok {
		return v.(*Viewpoint)
	}
	center := geom.V((float64(tx)+0.5)*g.tile, (float64(ty)+0.5)*g.tile)
	// Half-diagonal of the tile, padded so boundary origins stay inside
	// the slack envelope despite the floor quantization above.
	slack := g.tile*math.Sqrt2/2 + gridPad
	vp := g.ix.NewViewpoint(center, slack, g.rmax, g.targets)
	actual, _ := g.m.LoadOrStore(key, vp)
	return actual.(*Viewpoint)
}

// AppendObstaclesNearDisk appends to out, in ascending index order, every
// obstacle whose padded bounding box intersects the disk of radius r
// around p — a conservative superset of the obstacles whose exact geometry
// can interact with anything inside the disk. Discretization uses it to
// drop far obstacles from per-device ring cutting without changing output.
func (ix *Index) AppendObstaclesNearDisk(out []int32, p geom.Vec, r float64) []int32 {
	r2 := r * r
	for h := range ix.boxLo {
		if boxDist2(p, ix.boxLo[h], ix.boxHi[h]) <= r2 {
			out = append(out, int32(h))
		}
	}
	return out
}

// segIntersectsBox reports whether the segment a→b can meet the padded
// axis-aligned box [lo, hi]. It is a division-free conservative reject
// (bounding-box overlap, then all four corners strictly on one side of the
// segment's supporting line): it only answers false when the segment
// provably misses the box. The boxes it filters are gridPad-padded
// (1e-6), which dwarfs the ~1e-13-relative rounding of the cross
// products, so a segment that actually reaches the obstacle inside can
// never be rejected; false positives just fall through to the exact
// blocking predicate.
func segIntersectsBox(a, b, lo, hi geom.Vec) bool {
	if (a.X < lo.X && b.X < lo.X) || (a.X > hi.X && b.X > hi.X) ||
		(a.Y < lo.Y && b.Y < lo.Y) || (a.Y > hi.Y && b.Y > hi.Y) {
		return false
	}
	dx, dy := b.X-a.X, b.Y-a.Y
	c1 := dx*(lo.Y-a.Y) - dy*(lo.X-a.X)
	c2 := dx*(lo.Y-a.Y) - dy*(hi.X-a.X)
	c3 := dx*(hi.Y-a.Y) - dy*(lo.X-a.X)
	c4 := dx*(hi.Y-a.Y) - dy*(hi.X-a.X)
	if c1 > 0 && c2 > 0 && c3 > 0 && c4 > 0 {
		return false
	}
	if c1 < 0 && c2 < 0 && c3 < 0 && c4 < 0 {
		return false
	}
	return true
}

// boxDist2 returns the squared distance from p to the closest point of the
// axis-aligned box [lo, hi] (zero when p is inside).
func boxDist2(p, lo, hi geom.Vec) float64 {
	dx := math.Max(0, math.Max(lo.X-p.X, p.X-hi.X))
	dy := math.Max(0, math.Max(lo.Y-p.Y, p.Y-hi.Y))
	return dx*dx + dy*dy
}
