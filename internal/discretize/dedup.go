package discretize

import (
	"math"

	"hipo/internal/geom"
)

// dedupTol is the near-duplicate tolerance of Dedup and Positions.
const dedupTol = 1e-6

// The dedup buckets points into square cells of side dedupCell, cell(v) =
// ⌊v · dedupScale⌋ on each axis, and looks for a point's near-duplicates in
// the cells overlapping [p ± dedupReach] on both axes. A point q with
// Dist(p, q) ≤ dedupTol has |q.X − p.X| ≤ dedupTol·(1 + 2⁻⁵²) (Hypot is
// never below its larger leg, and the subtraction errs by at most half an
// ulp), so p.X − dedupReach < q.X < p.X + dedupReach; rounding, scaling
// and floor are monotone, so q's cell lies in the probed range. As
// 2·dedupReach is well under dedupCell, that range spans at most two cells
// per axis: at most 4 probes, about (1 + 3/16)² ≈ 1.4 on average.
const (
	dedupCell  = 16 * dedupTol
	dedupScale = 1 / dedupCell
	dedupReach = 1.5 * dedupTol
)

func dedupCellOf(v float64) int64 { return int64(math.Floor(v * dedupScale)) }

// Dedup removes near-duplicate points (1e-6 tolerance), preserving first
// occurrences.
func Dedup(pts []geom.Vec) []geom.Vec { return dedupParts([][]geom.Vec{pts}) }

// dedupParts returns the points of the concatenation of parts that no
// earlier kept point lies within dedupTol of, in input order: the O(n²)
// first-occurrence definition, bit for bit. The kept set is the geometric
// one whatever the cell side or probe order. The input is not modified;
// the table comes from a pool, and only the result, with capacity for the
// whole input, is allocated.
func dedupParts(parts [][]geom.Vec) []geom.Vec {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil
	}
	t := getDedupTable()
	defer dedupPool.Put(t)
	t.reset(n)
	for _, part := range parts {
		for _, p := range part {
			t.add(p)
		}
	}
	out := t.kept
	t.kept = nil
	return out
}

// dedupTable is an open-addressing index over the occupied cells of the
// points kept so far: slots[s] holds 1 + the index in kept of the newest
// kept point of the cell in slot s (0 = empty), and prev[k] links kept
// point k to 1 + the kept point before it in its cell (0 ends the chain).
// A slot's cell is recomputed from its newest point, so nothing but the
// link is stored beside each kept point.
type dedupTable struct {
	kept  []geom.Vec
	prev  []int32
	slots []int32
	mask  uint64
	shift uint // 64 − log₂(table size): Fibonacci hashing keeps the top bits
}

// reset empties the table for an input of n points and gives it a fresh
// kept list. The table is sized from n at load factor ≤ ½, so it never
// grows and a probe always reaches an empty slot.
func (t *dedupTable) reset(n int) {
	size, shift := 1, uint(64)
	for size < 2*n {
		size <<= 1
		shift--
	}
	t.slots = resize(t.slots, size)
	clear(t.slots)
	t.kept = make([]geom.Vec, 0, n)
	if cap(t.prev) < n {
		t.prev = make([]int32, 0, n)
	}
	t.prev = t.prev[:0]
	t.mask, t.shift = uint64(size-1), shift
}

// slot returns the table slot of cell (cx, cy): the slot naming the cell,
// or the empty one an insert would take.
func (t *dedupTable) slot(cx, cy int64) uint64 {
	h := (uint64(cx)*0x9E3779B97F4A7C15 ^ uint64(cy)) * 0xC2B2AE3D27D4EB4F
	for s := h >> t.shift; ; s = (s + 1) & t.mask {
		k := t.slots[s]
		if k == 0 {
			return s
		}
		if q := t.kept[k-1]; dedupCellOf(q.X) == cx && dedupCellOf(q.Y) == cy {
			return s
		}
	}
}

// add keeps p, linking it into its cell, unless a kept point lies within
// dedupTol of it.
func (t *dedupTable) add(p geom.Vec) {
	hx, hy := dedupCellOf(p.X), dedupCellOf(p.Y)
	x1, y1 := dedupCellOf(p.X+dedupReach), dedupCellOf(p.Y+dedupReach)
	y0 := dedupCellOf(p.Y - dedupReach)
	var home uint64 // p's own cell's slot, found or to be claimed
	for cx := dedupCellOf(p.X - dedupReach); cx <= x1; cx++ {
		for cy := y0; cy <= y1; cy++ {
			s := t.slot(cx, cy)
			if cx == hx && cy == hy {
				home = s
			}
			for j := t.slots[s]; j > 0; j = t.prev[j-1] {
				q := t.kept[j-1]
				// Exact screen: Dist is at least either axis gap.
				if math.Abs(q.X-p.X) > dedupTol || math.Abs(q.Y-p.Y) > dedupTol {
					continue
				}
				if q.Dist(p) <= dedupTol {
					return
				}
			}
		}
	}
	t.kept = append(t.kept, p)
	t.prev = append(t.prev, t.slots[home])
	t.slots[home] = int32(len(t.kept))
}
