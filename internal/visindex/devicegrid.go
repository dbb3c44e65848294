package visindex

import (
	"math"
	"math/bits"

	"hipo/internal/geom"
)

// DeviceGrid is a uniform grid over a set of points (device positions)
// storing per-cell membership bitmasks. Disk queries OR together the masks
// of every cell overlapping the disk's bounding box, yielding a
// conservative superset of the points within the radius; iterating the set
// bits visits points in ascending index order, so pruned loops keep the
// exact enumeration order of the full scans they replace.
//
// Like the obstacle Index, the grid is a pure prefilter: callers re-apply
// their exact distance predicates to every surviving point, so results are
// bit-for-bit identical with or without the grid. Immutable after New and
// safe for concurrent readers.
type DeviceGrid struct {
	lo     geom.Vec
	cw, ch float64
	nx, ny int
	n      int
	words  int
	// masks[(cy*nx+cx)*words : +words] is the bitmask of points in cell
	// (cx, cy).
	masks []uint64
}

// NewDeviceGrid indexes pts with roughly the given cell size (clamped to
// maxCellsPerAxis per axis).
func NewDeviceGrid(pts []geom.Vec, cell float64) *DeviceGrid {
	dg := &DeviceGrid{n: len(pts), words: (len(pts) + 63) / 64}
	if len(pts) == 0 {
		dg.nx, dg.ny = 1, 1
		dg.cw, dg.ch = 1, 1
		return dg
	}
	lo, hi := pts[0], pts[0]
	for _, p := range pts[1:] {
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
	}
	dg.lo = lo
	if cell <= 0 {
		cell = 1
	}
	w := math.Max(hi.X-lo.X, cell/2)
	h := math.Max(hi.Y-lo.Y, cell/2)
	dg.nx = clampCells(int(math.Ceil(w / cell)))
	dg.ny = clampCells(int(math.Ceil(h / cell)))
	dg.cw = w / float64(dg.nx)
	dg.ch = h / float64(dg.ny)
	dg.masks = make([]uint64, dg.nx*dg.ny*dg.words)
	for i, p := range pts {
		cx, cy := dg.cellOf(p)
		dg.masks[(cy*dg.nx+cx)*dg.words+i/64] |= 1 << (uint(i) % 64)
	}
	return dg
}

// Words returns the mask length (in uint64 words) CollectDisk expects.
func (dg *DeviceGrid) Words() int { return dg.words }

func (dg *DeviceGrid) cellOf(p geom.Vec) (int, int) {
	//lint:ignore nanflow cw is set once in NewDeviceGrid to w/nx with w >= gridPad and nx >= 1, hence strictly positive
	cx := int((p.X - dg.lo.X) / dg.cw)
	//lint:ignore nanflow ch is strictly positive for the same reason as cw
	cy := int((p.Y - dg.lo.Y) / dg.ch)
	return clampInt(cx, dg.nx-1), clampInt(cy, dg.ny-1)
}

// CollectDisk ORs into mask (len ≥ Words, zeroed by the caller) the points
// registered in every cell overlapping the bounding box of the disk of
// radius r around p: a superset of the points within distance r of p.
func (dg *DeviceGrid) CollectDisk(p geom.Vec, r float64, mask []uint64) {
	if dg.n == 0 {
		return
	}
	x0, y0 := dg.cellOf(geom.V(p.X-r, p.Y-r))
	x1, y1 := dg.cellOf(geom.V(p.X+r, p.Y+r))
	for cy := y0; cy <= y1; cy++ {
		row := dg.masks[(cy*dg.nx+x0)*dg.words : (cy*dg.nx+x1+1)*dg.words]
		for i, m := range row {
			mask[i%dg.words] |= m
		}
	}
}

// EachSet calls fn with each set bit index of mask in ascending order.
func EachSet(mask []uint64, fn func(i int)) {
	for w, m := range mask {
		base := w * 64
		for m != 0 {
			fn(base + bits.TrailingZeros64(m))
			m &= m - 1
		}
	}
}
