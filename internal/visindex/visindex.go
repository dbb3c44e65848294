// Package visindex accelerates the occlusion queries that dominate HIPO
// solve time (Sections 4–5: every candidate-position × device pair issues a
// line-of-sight query, and hole/shadow extraction re-derives per-viewpoint
// angular structure). It provides a uniform grid over the scenario's
// obstacle geometry with a DDA ray walk for LineOfSight, a cell lookup for
// point-in-obstacle tests, and per-viewpoint memos for the Shadow /
// EventAngles / HoleRays views (internal/visibility).
//
// Correctness contract: the index is a pure accelerator. Grid traversal
// only narrows the set of obstacles that could interact with a query; the
// final decision is always made by the exact same per-obstacle predicates
// (Polygon.BlocksSegment, Polygon.ContainsInterior) the brute-force scans
// use, so indexed and brute-force answers agree bit for bit. Obstacles are
// registered into every cell their ε-padded bounding box overlaps, and the
// padding strictly exceeds every tolerance those predicates apply, so no
// interacting obstacle can be missed by the walk. Differential tests here,
// TestLineOfSightMatchesBruteForceOnBenchScenarios on the benchmark
// scenarios, and internal/oracle's TestIndexedVsBruteForcePlacement on
// whole solves enforce the contract.
//
// An Index is immutable after New and safe for concurrent readers; the
// memos use sync.Map. Build one per model.Scenario (Ensure does this and
// attaches it) and never mutate the scenario's obstacles afterwards.
package visindex

import (
	"math"

	"hipo/internal/geom"
	"hipo/internal/model"
)

// gridPad expands obstacle bounding boxes (and the grid bounds) when
// registering cells. It must strictly dominate the ε tolerances inside the
// exact predicates (geom.Eps = 1e-9) so boundary-grazing interactions are
// never filtered out by the grid; 1e-6 leaves three orders of magnitude of
// slack while costing at most one extra cell per axis.
const gridPad = 1e-6

// maxCellsPerAxis bounds the grid resolution; beyond this, per-cell lists
// are tiny anyway and build cost/memory would grow without benefit.
const maxCellsPerAxis = 1024

// Index is a uniform spatial grid over a scenario's obstacles.
type Index struct {
	obs []model.Obstacle

	lo, hi geom.Vec // padded union bounding box of all obstacles
	cw, ch float64  // cell width / height
	nx, ny int
	// cells[y*nx+x] lists the obstacles whose padded bounding box overlaps
	// the cell, as indices into obs.
	cells [][]int32
	// all lists every obstacle index: the conservative fallback candidate
	// set used if the ray walk ever exits abnormally.
	all []int32
	// boxLo/boxHi are the per-obstacle gridPad-padded bounding boxes, the
	// same boxes cell registration uses. Viewpoint batching and the
	// ObstaclesNearDisk prefilter test against them, so those paths inherit
	// the grid's conservative-padding contract.
	boxLo, boxHi []geom.Vec
	// lens and bbLo/bbHi cache each obstacle's Polygon.EdgeLens() and exact
	// (unpadded) BoundingBox() for Polygon.BlocksSegmentCached, so the
	// exact blocking predicate runs allocation-free and with no per-edge
	// Hypot on the hot paths.
	lens       [][]float64
	bbLo, bbHi []geom.Vec

	memo memoStore

	// obsHash fingerprints the obstacle set the index was built from (see
	// ObstacleHash). Ensure compares it against the scenario's current
	// obstacles to detect in-place mutation: the grid, the per-obstacle
	// caches, and every sync.Map memo are keyed to the geometry at New time,
	// so a mutated obstacle set must trigger a rebuild, never a reuse.
	obsHash uint64
}

// ObstacleHash fingerprints an obstacle set: an FNV-1a hash over the
// obstacle count, each polygon's vertex count, and every vertex coordinate's
// float64 bit pattern. Any change to the set — adding, removing, reordering,
// or moving a vertex — changes the hash (up to FNV collisions, which the
// 64-bit digest makes negligible for staleness detection).
func ObstacleHash(obs []model.Obstacle) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(len(obs)))
	for _, o := range obs {
		mix(uint64(len(o.Shape.Vertices)))
		for _, v := range o.Shape.Vertices {
			mix(math.Float64bits(v.X))
			mix(math.Float64bits(v.Y))
		}
	}
	return h
}

// MatchesObstacles reports whether the index was built from an obstacle set
// with the same geometry fingerprint as obs — i.e. whether its grid and
// memos are still valid for a scenario carrying obs.
func (ix *Index) MatchesObstacles(obs []model.Obstacle) bool {
	return ix.obsHash == ObstacleHash(obs)
}

// New builds the index for the scenario's current obstacle set. The index
// keeps references to the obstacle polygons; the caller must not mutate
// them afterwards.
func New(sc *model.Scenario) *Index {
	ix := &Index{obs: sc.Obstacles, obsHash: ObstacleHash(sc.Obstacles)}
	n := len(sc.Obstacles)
	if n == 0 {
		return ix
	}
	ix.all = make([]int32, n)
	pad := geom.V(gridPad, gridPad)
	ix.boxLo = make([]geom.Vec, n)
	ix.boxHi = make([]geom.Vec, n)
	ix.lens = make([][]float64, n)
	ix.bbLo = make([]geom.Vec, n)
	ix.bbHi = make([]geom.Vec, n)
	nSeg := 0
	for h, o := range sc.Obstacles {
		ix.all[h] = int32(h)
		ix.lens[h] = o.Shape.EdgeLens()
		lo, hi := o.Shape.BoundingBox()
		ix.bbLo[h], ix.bbHi[h] = lo, hi
		ix.boxLo[h], ix.boxHi[h] = lo.Sub(pad), hi.Add(pad)
		nSeg += len(o.Shape.Vertices)
		if h == 0 {
			ix.lo, ix.hi = lo, hi
			continue
		}
		ix.lo.X = math.Min(ix.lo.X, lo.X)
		ix.lo.Y = math.Min(ix.lo.Y, lo.Y)
		ix.hi.X = math.Max(ix.hi.X, hi.X)
		ix.hi.Y = math.Max(ix.hi.Y, hi.Y)
	}
	ix.lo = ix.lo.Sub(geom.V(gridPad, gridPad))
	ix.hi = ix.hi.Add(geom.V(gridPad, gridPad))

	// Resolution: aim for ~4 cells per obstacle segment so per-cell lists
	// stay short, split across the axes proportionally to the extent.
	w := math.Max(ix.hi.X-ix.lo.X, gridPad)
	h := math.Max(ix.hi.Y-ix.lo.Y, gridPad)
	nx, ny := 1, 1
	if nSeg > 0 {
		target := float64(4 * nSeg)
		cell := math.Sqrt(w * h / target)
		if cell > 0 { // always true: w, h ≥ gridPad and target ≥ 4
			nx = clampCells(int(math.Ceil(w / cell)))
			ny = clampCells(int(math.Ceil(h / cell)))
		}
	}
	ix.nx, ix.ny = nx, ny
	ix.cw = w / float64(nx)
	ix.ch = h / float64(ny)
	ix.cells = make([][]int32, ix.nx*ix.ny)
	for idx := range ix.all {
		x0, y0 := ix.cellOf(ix.boxLo[idx])
		x1, y1 := ix.cellOf(ix.boxHi[idx])
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				c := cy*ix.nx + cx
				ix.cells[c] = append(ix.cells[c], int32(idx))
			}
		}
	}
	return ix
}

func clampCells(n int) int {
	if n < 1 {
		return 1
	}
	if n > maxCellsPerAxis {
		return maxCellsPerAxis
	}
	return n
}

// cellOf maps a point to clamped cell coordinates.
func (ix *Index) cellOf(p geom.Vec) (int, int) {
	//lint:ignore nanflow cw is set once in New to w/nx with w >= gridPad and nx >= 1, hence strictly positive
	cx := int((p.X - ix.lo.X) / ix.cw)
	//lint:ignore nanflow ch is strictly positive for the same reason as cw
	cy := int((p.Y - ix.lo.Y) / ix.ch)
	return clampInt(cx, ix.nx-1), clampInt(cy, ix.ny-1)
}

func clampInt(v, hi int) int {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}

// LineOfSight reports whether the open segment a–b is free of obstacles. It
// walks the grid cells pierced by the segment (Amanatides–Woo DDA) and runs
// the exact Polygon.BlocksSegment predicate, in its cached form, on each
// obstacle encountered, each at most once.
func (ix *Index) LineOfSight(a, b geom.Vec) bool {
	if len(ix.obs) == 0 {
		return true
	}
	t0, t1, ok := clipToBox(a, b, ix.lo, ix.hi)
	if !ok {
		// The segment never enters the padded union bounding box, so no
		// obstacle's ε-expanded geometry can touch it.
		return true
	}
	s := geom.Seg(a, b)
	sl := s.Dir().Len()
	// Visited-obstacle bitmask; stack-allocated for ≤ 256 obstacles.
	words := (len(ix.obs) + 63) / 64
	var maskBuf [4]uint64
	mask := maskBuf[:]
	if words > len(maskBuf) {
		mask = make([]uint64, words)
	} else {
		mask = maskBuf[:words]
	}
	blocked := false
	test := func(cands []int32) bool {
		for _, h := range cands {
			w, bit := h>>6, uint64(1)<<(uint(h)&63)
			if mask[w]&bit != 0 {
				continue
			}
			mask[w] |= bit
			if ix.obs[h].Shape.BlocksSegmentCached(s, sl, ix.lens[h], ix.bbLo[h], ix.bbHi[h]) {
				blocked = true
				return false
			}
		}
		return true
	}
	ix.walk(a, b, t0, t1, test)
	return !blocked
}

// PointInObstacle reports whether p lies strictly inside any obstacle,
// using the exact Polygon.ContainsInterior predicate on the obstacles
// registered in p's cell. An obstacle whose padded box excludes p is
// skipped first: the gridPad margin dominates the predicate's Eps, so a
// point outside the box can be neither interior nor on the boundary, and
// the screen is the same conservative contract cell registration relies on.
func (ix *Index) PointInObstacle(p geom.Vec) bool {
	if len(ix.obs) == 0 {
		return false
	}
	if p.X < ix.lo.X || p.X > ix.hi.X || p.Y < ix.lo.Y || p.Y > ix.hi.Y {
		return false
	}
	cx, cy := ix.cellOf(p)
	for _, h := range ix.cells[cy*ix.nx+cx] {
		lo, hi := ix.boxLo[h], ix.boxHi[h]
		if p.X < lo.X || p.X > hi.X || p.Y < lo.Y || p.Y > hi.Y {
			continue
		}
		if ix.obs[h].Shape.ContainsInterior(p) {
			return true
		}
	}
	return false
}

// walk visits the cells pierced by the segment a–b restricted to parameter
// range [t0, t1] (its clipped portion inside the grid bounds), calling
// visit with each cell's candidate list until visit returns false. If the
// traversal ever exits abnormally — floating-point jitter pushing it off
// the grid before the exit cell, or a step-count overrun — it falls back to
// visiting the full obstacle list, trading speed for certain correctness.
func (ix *Index) walk(a, b geom.Vec, t0, t1 float64, visit func([]int32) bool) {
	p0 := geom.Lerp(a, b, t0)
	p1 := geom.Lerp(a, b, t1)
	cx, cy := ix.cellOf(p0)
	ex, ey := ix.cellOf(p1)
	dx := b.X - a.X
	dy := b.Y - a.Y

	stepX, tMaxX, tDeltaX := axisStepper(a.X, dx, ix.lo.X, ix.cw, cx)
	stepY, tMaxY, tDeltaY := axisStepper(a.Y, dy, ix.lo.Y, ix.ch, cy)

	for steps := 0; steps <= ix.nx+ix.ny+4; steps++ {
		if !visit(ix.cells[cy*ix.nx+cx]) {
			return
		}
		if cx == ex && cy == ey {
			return
		}
		if tMaxX < tMaxY {
			cx += stepX
			tMaxX += tDeltaX
		} else {
			cy += stepY
			tMaxY += tDeltaY
		}
		if cx < 0 || cx >= ix.nx || cy < 0 || cy >= ix.ny {
			break // abnormal exit: fall through to the conservative scan
		}
	}
	visit(ix.all)
}

// axisStepper returns the DDA state for one axis: the cell step direction,
// the segment parameter at which the walk first crosses a cell boundary on
// this axis, and the parameter increment per cell.
func axisStepper(origin, d, lo, cellSize float64, c int) (step int, tMax, tDelta float64) {
	if d > 0 {
		bound := lo + float64(c+1)*cellSize
		return 1, (bound - origin) / d, cellSize / d
	}
	if d < 0 {
		bound := lo + float64(c)*cellSize
		return -1, (bound - origin) / d, -cellSize / d
	}
	return 0, math.Inf(1), math.Inf(1)
}

// clipToBox clips the segment a–b against the axis-aligned box [lo, hi]
// (Liang–Barsky), returning the parameter range of the portion inside the
// box. ok is false when the segment misses the box entirely.
func clipToBox(a, b, lo, hi geom.Vec) (t0, t1 float64, ok bool) {
	t0, t1 = 0, 1
	d := b.Sub(a)
	clips := [4][2]float64{
		{-d.X, a.X - lo.X},
		{d.X, hi.X - a.X},
		{-d.Y, a.Y - lo.Y},
		{d.Y, hi.Y - a.Y},
	}
	for _, pq := range clips {
		p, q := pq[0], pq[1]
		if math.Abs(p) <= 1e-300 {
			if q < 0 {
				return 0, 0, false // parallel and outside this slab
			}
			continue
		}
		r := q / p
		if p < 0 {
			if r > t0 {
				t0 = r
			}
		} else if r < t1 {
			t1 = r
		}
		if t0 > t1+1e-12 {
			return 0, 0, false
		}
	}
	if t1 < t0 {
		t1 = t0
	}
	return t0, t1, true
}
