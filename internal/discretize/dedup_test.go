package discretize

import (
	"math"
	"slices"
	"testing"

	"hipo/internal/geom"
)

// dedupReference is the O(n²) definition the dedup must match:
// a point is kept unless an earlier kept point lies within dedupTol.
func dedupReference(pts []geom.Vec) []geom.Vec {
	var out []geom.Vec
next:
	for _, p := range pts {
		for _, q := range out {
			if q.Dist(p) <= dedupTol {
				continue next
			}
		}
		out = append(out, p)
	}
	return out
}

func sameVecBits(a, b []geom.Vec) bool {
	return slices.EqualFunc(a, b, func(x, y geom.Vec) bool {
		return math.Float64bits(x.X) == math.Float64bits(y.X) && math.Float64bits(x.Y) == math.Float64bits(y.Y)
	})
}

// splitParts cuts pts into consecutive parts of the given size, the last
// one shorter.
func splitParts(pts []geom.Vec, size int) [][]geom.Vec {
	var parts [][]geom.Vec
	for len(pts) > 0 {
		k := min(size, len(pts))
		parts = append(parts, pts[:k])
		pts = pts[k:]
	}
	return parts
}

// checkDedup compares Dedup, and dedupParts on the input cut into parts
// of 7 (as Positions hands it task buffers), with the O(n²) reference.
func checkDedup(t *testing.T, pts []geom.Vec) []geom.Vec {
	t.Helper()
	want := dedupReference(pts)
	if got := Dedup(pts); !sameVecBits(got, want) {
		t.Fatalf("Dedup kept %v, reference %v (input %v)", got, want, pts)
	}
	if got := dedupParts(splitParts(pts, 7)); !sameVecBits(got, want) {
		t.Fatalf("parts of 7: kept %v, reference %v (input %v)", got, want, pts)
	}
	return want
}

func TestDedupMatchesReference(t *testing.T) {
	// straddle returns points on both sides of the line x = e (and the
	// same in y), one ulp to a few tolerances away: at a cell edge, the
	// near-duplicates sit in the neighbouring cell, and the offsets around
	// ±dedupReach put the probed range's ends on either side of the edge.
	straddle := func(e float64) []geom.Vec {
		var out []geom.Vec
		for _, d := range []float64{0, math.Nextafter(e, math.Inf(-1)) - e, math.Nextafter(e, math.Inf(1)) - e,
			0.5 * dedupTol, -0.5 * dedupTol, dedupTol, -dedupTol, 1.5 * dedupTol, -2 * dedupTol,
			dedupReach - 0.6*dedupTol, -(dedupReach - 0.6*dedupTol), 0.4 * dedupTol, -0.45 * dedupTol} {
			out = append(out, geom.V(e+d, e), geom.V(e, e-d), geom.V(e+d, e+d))
		}
		return out
	}
	// across returns pairs 0.6·tol apart on either side of the line
	// x = e, then y = e, then both, each pair offered in both orders, so a
	// pair's second point finds its twin only in the neighbouring cell.
	across := func(e float64) []geom.Vec {
		lo, hi := e-0.3*dedupTol, e+0.3*dedupTol
		return []geom.Vec{
			geom.V(lo, 1), geom.V(hi, 1), geom.V(hi, 2), geom.V(lo, 2),
			geom.V(3, lo), geom.V(3, hi), geom.V(4, hi), geom.V(4, lo),
			geom.V(lo, lo), geom.V(hi, hi), geom.V(hi+1, lo+1), geom.V(lo+1, hi+1),
		}
	}
	cases := map[string][]geom.Vec{
		"empty":          nil,
		"single":         {geom.V(3, 4)},
		"exact-dup":      {geom.V(1, 1), geom.V(1, 1), geom.V(2, 2), geom.V(1, 1), geom.V(2, 2)},
		"tol-apart":      {geom.V(0, 0), geom.V(dedupTol, 0), geom.V(0, dedupTol), geom.V(2*dedupTol, 0), geom.V(5, 5), geom.V(5+dedupTol, 5)},
		"just-over-tol":  {geom.V(0, 0), geom.V(math.Nextafter(dedupTol, 1), 0), geom.V(-dedupTol, 0)},
		"diagonal":       {geom.V(0, 0), geom.V(0.7*dedupTol, 0.7*dedupTol), geom.V(0.71*dedupTol, 0.71*dedupTol)},
		"straddle-zero":  straddle(0),
		"straddle-neg":   straddle(-12345 * dedupTol),
		"straddle-large": straddle(7e9 * dedupTol),
		// Edges of the deduper's dedupCell-sided cells.
		"straddle-cell":       straddle(dedupCell),
		"straddle-cell-neg":   straddle(-12345 * dedupCell),
		"straddle-cell-large": straddle(4.375e8 * dedupCell),
		"straddle-cell-odd":   straddle(3 * dedupCell),
		"across-cell":         across(dedupCell),
		"across-cell-neg":     across(-12345 * dedupCell),
		"across-cell-large":   across(4.375e8 * dedupCell),
		"negative-zero":       {geom.V(math.Copysign(0, -1), 0), geom.V(0, math.Copysign(0, -1)), geom.V(-0.5*dedupTol, 0)},
	}
	for name, pts := range cases {
		t.Run(name, func(t *testing.T) { checkDedup(t, pts) })
	}
	if got := checkDedup(t, cases["exact-dup"]); len(got) != 2 {
		t.Errorf("exact duplicates: kept %d points, want 2", len(got))
	}
	if got := checkDedup(t, cases["across-cell"]); len(got) != 6 {
		t.Errorf("pairs across a cell edge: kept %d points, want 6", len(got))
	}
}

// TestDedupNonTransitiveChain pins first-occurrence semantics on a chain
// A–B–C with |AB|, |BC| ≤ tol but |AC| > tol: B falls to A, and C survives
// because the only point near it was dropped.
func TestDedupNonTransitiveChain(t *testing.T) {
	a, b, c := geom.V(0, 0), geom.V(0.9*dedupTol, 0), geom.V(1.8*dedupTol, 0)
	got := checkDedup(t, []geom.Vec{a, b, c})
	if !sameVecBits(got, []geom.Vec{a, c}) {
		t.Fatalf("chain kept %v, want [A C]", got)
	}
	// Order decides: offered as B, A, C only B survives.
	if got := checkDedup(t, []geom.Vec{b, a, c}); !sameVecBits(got, []geom.Vec{b}) {
		t.Fatalf("chain B,A,C kept %v, want [B]", got)
	}
}

// TestDedupDenseCluster packs many points into a few cells, so chains run
// long and the table's probes collide.
func TestDedupDenseCluster(t *testing.T) {
	var pts []geom.Vec
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			pts = append(pts, geom.V(float64(i)*0.37*dedupTol, -float64(j)*0.41*dedupTol))
		}
	}
	checkDedup(t, pts)
}

// TestDedupChainsAcrossCellEdges puts non-transitive 0.9·tol chains
// across every cell-column edge of a 64-column span, in both directions,
// centred on the edge and dedupReach to either side of it, so a chain's
// points find each other only in the neighbouring column, and a probe
// that missed it would keep a chain's middle point.
func TestDedupChainsAcrossCellEdges(t *testing.T) {
	var pts []geom.Vec
	chains := 0
	for k := 0; k <= 64; k++ {
		for m, d := range []float64{-dedupReach, 0, dedupReach} {
			e, y := float64(k)*dedupCell+d, float64(k)+float64(m)
			pts = append(pts,
				geom.V(e-0.45*dedupTol, y), geom.V(e+0.45*dedupTol, y), geom.V(e+1.35*dedupTol, y),
				geom.V(e+0.45*dedupTol, y+0.5), geom.V(e-0.45*dedupTol, y+0.5), geom.V(e-1.35*dedupTol, y+0.5))
			chains += 2
		}
	}
	if got := checkDedup(t, pts); len(got) != 2*chains {
		t.Fatalf("kept %d points, want the two ends of each of the %d chains", len(got), chains)
	}
}

// FuzzDedup differentially fuzzes Dedup and dedupParts (checkDedup)
// against the O(n²) reference. The input bytes place points on a lattice
// of quarter-tolerance steps around a fuzzed base, so near-duplicates and
// cell straddles are common.
func FuzzDedup(f *testing.F) {
	f.Add(0.0, 0.0, []byte{0, 0, 4, 0, 8, 0, 4, 4})
	f.Add(-1e-6, 1e-6, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(1234.5, -9876.5, []byte{0, 0, 0, 0, 255, 255, 3, 1})
	f.Add(7e9, -7e9, []byte{0, 1, 1, 0, 2, 2})
	// Three 0.75·tol chains across the column edge at x = 0, shifted by
	// 0 and ±dedupReach (6 quarter-tolerances), 4·tol apart in y.
	f.Add(0.0, 0.0, []byte{5, 0, 8, 0, 11, 0, 254, 16, 1, 16, 4, 16, 249, 32, 252, 32, 255, 32})
	// Every point at one x.
	f.Add(16e-6, 3.0, []byte{0, 0, 0, 3, 0, 6, 0, 2, 0, 5, 0, 1, 0, 200, 0, 4})
	// A dense cluster.
	f.Add(-5.0, 5.0, []byte{0, 0, 1, 1, 2, 0, 0, 2, 1, 2, 2, 1, 3, 3, 1, 0, 0, 1, 3, 2, 2, 3})
	f.Fuzz(func(t *testing.T, bx, by float64, raw []byte) {
		if math.IsNaN(bx) || math.IsNaN(by) || math.Abs(bx) > 1e10 || math.Abs(by) > 1e10 {
			t.Skip("out of the supported coordinate range")
		}
		var pts []geom.Vec
		for i := 0; i+1 < len(raw) && len(pts) < 256; i += 2 {
			dx := float64(int8(raw[i])) * dedupTol / 4
			dy := float64(int8(raw[i+1])) * dedupTol / 4
			pts = append(pts, geom.V(bx+dx, by+dy))
		}
		checkDedup(t, pts)
	})
}
