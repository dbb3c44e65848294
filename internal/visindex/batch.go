package visindex

import (
	"math"
	"sync/atomic"

	"hipo/internal/geom"
)

// Viewpoint is one tile of a ViewpointGrid: the envelope its positions
// lie in, and the auxiliary device list that the first position swept in
// the tile computes for the rest. A Viewpoint is immutable apart from that
// atomically published list and is safe for concurrent use.
type Viewpoint struct {
	center geom.Vec
	slack  float64
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

// Envelope reports the tile envelope every position of the tile lies in:
// the disk of radius slack around center.
func (vp *Viewpoint) Envelope() (center geom.Vec, slack float64) {
	return vp.center, vp.slack
}

// NewViewpoint returns an empty tile for the envelope of radius slack
// around center.
//
//hipo:hotpath
func (ix *Index) NewViewpoint(center geom.Vec, slack float64) *Viewpoint {
	return &Viewpoint{center: center, slack: slack}
}

// maxTilesPerAxis bounds a ViewpointGrid's tile table; past it the tiles
// grow instead, which only loosens the per-tile prefilter.
const maxTilesPerAxis = 256

// ViewpointGrid tiles the targets' bounding box, widened by rmax, into
// square tiles: At(p) returns the (lazily built, concurrently shared)
// Viewpoint of p's tile from a flat table. Tiles are pure functions of the
// tile coordinates, so concurrent duplicate builds are identical and
// results never depend on which build is published first.
type ViewpointGrid struct {
	ix   *Index
	tile float64
	// lo, hi bound the targets widened by rmax; tiles[(ty-ty0)*nx+tx-tx0]
	// is the tile with corner (tx, ty)·tile.
	lo, hi   geom.Vec
	tx0, ty0 int
	nx       int
	tiles    []atomic.Pointer[Viewpoint]
}

// NewViewpointGrid prepares a viewpoint tiling of the positions within
// rmax (which must be positive) of some target.
func (ix *Index) NewViewpointGrid(rmax float64, targets []geom.Vec) *ViewpointGrid {
	g := &ViewpointGrid{ix: ix, lo: geom.V(1, 1), hi: geom.V(-1, -1)}
	if len(targets) == 0 {
		return g // an empty box: At finds no tile
	}
	lo, hi := targets[0], targets[0]
	for _, p := range targets[1:] {
		lo.X, lo.Y = math.Min(lo.X, p.X), math.Min(lo.Y, p.Y)
		hi.X, hi.Y = math.Max(hi.X, p.X), math.Max(hi.Y, p.Y)
	}
	g.lo, g.hi = lo.Sub(geom.V(rmax, rmax)), hi.Add(geom.V(rmax, rmax))
	// Tile span rmax/8: small enough that each tile's device prefilter stays
	// tight, large enough that thousands of clustered positions share a few
	// hundred tiles.
	g.tile = max(rmax/8, (g.hi.X-g.lo.X)/maxTilesPerAxis, (g.hi.Y-g.lo.Y)/maxTilesPerAxis)
	//lint:ignore nanflow tile is at least rmax/8, and rmax is required positive
	g.tx0, g.ty0 = int(math.Floor(g.lo.X/g.tile)), int(math.Floor(g.lo.Y/g.tile))
	//lint:ignore nanflow tile is strictly positive for the same reason as above
	tx1, ty1 := int(math.Floor(g.hi.X/g.tile)), int(math.Floor(g.hi.Y/g.tile))
	g.nx = tx1 - g.tx0 + 1
	g.tiles = make([]atomic.Pointer[Viewpoint], g.nx*(ty1-g.ty0+1))
	return g
}

// At returns the Viewpoint of p's tile, or nil when p lies outside the
// targets' bounding box widened by rmax, where no target is within rmax.
func (g *ViewpointGrid) At(p geom.Vec) *Viewpoint {
	if p.X < g.lo.X || p.X > g.hi.X || p.Y < g.lo.Y || p.Y > g.hi.Y {
		return nil
	}
	// Division and floor are monotone, so a p inside the box lands inside
	// the table.
	//lint:ignore nanflow tile is strictly positive (see NewViewpointGrid)
	tx := int(math.Floor(p.X / g.tile))
	//lint:ignore nanflow tile is strictly positive (see NewViewpointGrid)
	ty := int(math.Floor(p.Y / g.tile))
	slot := &g.tiles[(ty-g.ty0)*g.nx+tx-g.tx0]
	if vp := slot.Load(); vp != nil {
		return vp
	}
	center := geom.V((float64(tx)+0.5)*g.tile, (float64(ty)+0.5)*g.tile)
	// Half-diagonal of the tile, padded so boundary positions stay inside
	// the slack envelope despite the floor quantization above.
	slack := g.tile*math.Sqrt2/2 + gridPad
	slot.CompareAndSwap(nil, g.ix.NewViewpoint(center, slack))
	return slot.Load()
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

// boxDist2 returns the squared distance from p to the closest point of the
// axis-aligned box [lo, hi] (zero when p is inside).
func boxDist2(p, lo, hi geom.Vec) float64 {
	dx := math.Max(0, math.Max(lo.X-p.X, p.X-hi.X))
	dy := math.Max(0, math.Max(lo.Y-p.Y, p.Y-hi.Y))
	return dx*dx + dy*dy
}
