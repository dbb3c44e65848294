package pdcs

import (
	"math"
	"sync/atomic"

	"hipo/internal/geom"
)

// maxTilesPerAxis bounds a tile table; past it the tiles grow instead,
// which only loosens the per-tile prefilter.
const maxTilesPerAxis = 256

// tileTable tiles the devices' bounding box, widened by rmax, into square
// tiles, each holding the device prefilter (eligibleCache.tileDevices) that
// every position swept inside it shares. A list is built lazily by the
// first position swept in its tile and is a pure function of the tile
// coordinates, so concurrent duplicate builds are identical and the
// publication race is benign. Safe for concurrent use.
type tileTable struct {
	size float64 // tile side
	// lo, hi bound the devices widened by rmax; lists[(ty-ty0)*nx+tx-tx0]
	// is the device list of the tile with corner (tx, ty)·size, nil until
	// first use.
	lo, hi   geom.Vec
	tx0, ty0 int
	nx       int
	lists    []atomic.Pointer[[]int32]
}

// newTileTable prepares the tiling of the positions within rmax (which
// must be positive) of some point of pts.
func newTileTable(rmax float64, pts []geom.Vec) tileTable {
	t := tileTable{lo: geom.V(1, 1), hi: geom.V(-1, -1)}
	if len(pts) == 0 {
		return t // an empty box: slot finds no tile
	}
	lo, hi := pts[0], pts[0]
	for _, p := range pts[1:] {
		lo.X, lo.Y = math.Min(lo.X, p.X), math.Min(lo.Y, p.Y)
		hi.X, hi.Y = math.Max(hi.X, p.X), math.Max(hi.Y, p.Y)
	}
	t.lo, t.hi = lo.Sub(geom.V(rmax, rmax)), hi.Add(geom.V(rmax, rmax))
	// Tile side rmax/8: small enough that each tile's device prefilter
	// stays tight, large enough that thousands of clustered positions share
	// a few hundred tiles.
	t.size = max(rmax/8, (t.hi.X-t.lo.X)/maxTilesPerAxis, (t.hi.Y-t.lo.Y)/maxTilesPerAxis)
	//lint:ignore nanflow size is at least rmax/8, and rmax is required positive
	t.tx0, t.ty0 = int(math.Floor(t.lo.X/t.size)), int(math.Floor(t.lo.Y/t.size))
	//lint:ignore nanflow size is strictly positive for the same reason as above
	tx1, ty1 := int(math.Floor(t.hi.X/t.size)), int(math.Floor(t.hi.Y/t.size))
	t.nx = tx1 - t.tx0 + 1
	t.lists = make([]atomic.Pointer[[]int32], t.nx*(ty1-t.ty0+1))
	return t
}

// devices returns the device list of p's tile, building and publishing it
// with c.tileDevices on first use, or nil when p lies outside the widened
// bounding box, where no device is within rmax.
func (t *tileTable) devices(p geom.Vec, c *eligibleCache) []int32 {
	if p.X < t.lo.X || p.X > t.hi.X || p.Y < t.lo.Y || p.Y > t.hi.Y {
		return nil
	}
	// Division and floor are monotone, so a p inside the box lands inside
	// the table.
	//lint:ignore nanflow size is strictly positive (see newTileTable)
	tx := int(math.Floor(p.X / t.size))
	//lint:ignore nanflow size is strictly positive (see newTileTable)
	ty := int(math.Floor(p.Y / t.size))
	slot := &t.lists[(ty-t.ty0)*t.nx+tx-t.tx0]
	if lst := slot.Load(); lst != nil {
		return *lst
	}
	center := geom.V((float64(tx)+0.5)*t.size, (float64(ty)+0.5)*t.size)
	// Half-diagonal of the tile, padded so boundary positions stay inside
	// the envelope despite the floor quantization above.
	slack := t.size*math.Sqrt2/2 + prunePad
	lst := c.tileDevices(center, slack)
	slot.Store(&lst)
	return lst
}

// Tile-prefilter tolerances. The prefilter works on the tile envelope (all
// positions within slack of the tile center), so its gates must out-pad the
// exact per-position predicates in tryDevice:
//
//   - tileDistPad widens the [DMin, DMax] annulus beyond the exact ±geom.Eps
//     range gates, and is also the minimum center distance (beyond the
//     slack) at which the sector gate may engage — guaranteeing every
//     in-tile position is at least tileDistPad from the device, which
//     bounds the exact sector gate's angular tolerance below.
//   - tileAngPad bounds the widening of the exact sector acceptance cone:
//     tryDevice accepts cos ψ ≥ cos(α/2) − ε′ with ε′ = geom.Eps·max(1,d)/d
//     ≤ 1e-9/tileDistPad = 1e-6 for d ≥ tileDistPad, and
//     arccos(cos θ − ε′) ≤ θ + √(2ε′) ≤ θ + 1.5e-3 < θ + tileAngPad.
const (
	tileDistPad = 1e-3
	tileAngPad  = 2e-3
)

// tileDevices lists, in ascending index order, every device that could pass
// tryDevice's exact eligibility gates from some position within slack of
// center — the conservative per-tile device prefilter. A device is skipped
// only when the whole tile envelope provably fails the charging-range
// annulus or lies outside the device's (padded) receiving sector.
func (c *eligibleCache) tileDevices(center geom.Vec, slack float64) []int32 {
	sc := c.sc
	ct := c.ct
	out := make([]int32, 0, len(sc.Devices))
	for j := range sc.Devices {
		dev := &sc.Devices[j]
		delta := dev.Pos.Sub(center)
		dc := delta.Len()
		if dc-slack > ct.DMax+geom.Eps+tileDistPad || dc+slack < ct.DMin-geom.Eps-tileDistPad {
			continue
		}
		dt := &sc.DeviceTypes[dev.Type]
		if dt.Alpha < 2*math.Pi-geom.Eps && dc > slack+tileDistPad {
			// Directions device→position across the tile deviate from the
			// device→center direction by at most asin(slack/dc).
			spread := math.Asin(math.Min(1, slack/dc))
			if geom.AbsAngleDiff(delta.Neg().Angle(), dev.Orient) > dt.Alpha/2+spread+tileAngPad {
				continue
			}
		}
		out = append(out, int32(j))
	}
	return out
}
