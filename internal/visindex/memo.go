package visindex

import (
	"math"
	"sync"
	"sync/atomic"

	"hipo/internal/geom"
	"hipo/internal/hipotrace"
	"hipo/internal/model"
	"hipo/internal/visibility"
)

// memoStore caches the per-viewpoint angular structure that candidate
// generation recomputes once per charger type at the same device positions:
// shadow interval sets, event angles, and hole rays. Keys quantize the
// viewpoint by its exact float64 bit pattern — the finest quantization
// there is — because any coarser bucketing could alias two distinct
// viewpoints and break the bit-for-bit agreement with the brute-force path
// that the differential tests assert. Values are shared: callers receive
// the same slice/set on every hit and must not mutate them. Nothing is
// evicted on its own; an owner whose viewpoints move (an incremental
// session's devices) bounds the store with RetainViewpoints.
type memoStore struct {
	shadows sync.Map // posKey -> *geom.IntervalSet
	events  sync.Map // posKey -> []float64
	holes   sync.Map // rayKey -> []geom.Segment

	// hits and misses count memo lookups across all three maps; observe via
	// Index.MemoStats. Counting sits on the memoized (not the per-segment)
	// path, so the atomics are amortized over the recomputation they save.
	hits   atomic.Int64
	misses atomic.Int64
}

// MemoStats returns the cumulative hit and miss counts of the per-viewpoint
// memos since the index was built.
func (ix *Index) MemoStats() (hits, misses int64) {
	return ix.memo.hits.Load(), ix.memo.misses.Load()
}

// TraceMemoStats captures the memo hit and miss counts of sc's attached
// index and returns a flush recording the deltas accrued in between as the
// tracer's vis_memo_hits and vis_memo_misses; a no-op without a tracer or
// index. Cold and warm solves wrap their extraction in it.
func TraceMemoStats(sc *model.Scenario, tr *hipotrace.Tracer) func() {
	ix, ok := sc.AttachedVisibilityIndex().(*Index)
	if !tr.Enabled() || !ok {
		return func() {}
	}
	hits0, misses0 := ix.MemoStats()
	return func() {
		hits, misses := ix.MemoStats()
		tr.Add(hipotrace.CtrVisMemoHits, hits-hits0)
		tr.Add(hipotrace.CtrVisMemoMisses, misses-misses0)
	}
}

// posKey is a viewpoint quantized to its exact bit pattern.
type posKey struct{ x, y uint64 }

// rayKey additionally carries the truncation radius of a HoleRays query.
type rayKey struct{ x, y, r uint64 }

func keyOf(p geom.Vec) posKey {
	return posKey{math.Float64bits(p.X), math.Float64bits(p.Y)}
}

// Shadow returns the combined occluded angular set from p over all
// obstacles, memoized per viewpoint. The returned set is shared: read-only.
func (ix *Index) Shadow(p geom.Vec) *geom.IntervalSet {
	k := keyOf(p)
	if v, ok := ix.memo.shadows.Load(k); ok {
		ix.memo.hits.Add(1)
		return v.(*geom.IntervalSet)
	}
	ix.memo.misses.Add(1)
	s := visibility.ShadowOf(p, ix.obs)
	v, _ := ix.memo.shadows.LoadOrStore(k, s)
	return v.(*geom.IntervalSet)
}

// EventAngles returns the sorted, deduplicated shadow-boundary angles seen
// from p, memoized per viewpoint. The returned slice is shared: read-only.
func (ix *Index) EventAngles(p geom.Vec) []float64 {
	k := keyOf(p)
	if v, ok := ix.memo.events.Load(k); ok {
		ix.memo.hits.Add(1)
		return v.([]float64)
	}
	ix.memo.misses.Add(1)
	ea := visibility.EventAnglesOf(p, ix.obs)
	v, _ := ix.memo.events.LoadOrStore(k, ea)
	return v.([]float64)
}

// HoleRays returns the visible hole-boundary rays from p truncated at rmax,
// memoized per (viewpoint, radius); line-of-sight checks inside go through
// the index. The returned slice is shared: read-only.
func (ix *Index) HoleRays(p geom.Vec, rmax float64) []geom.Segment {
	k := rayKey{math.Float64bits(p.X), math.Float64bits(p.Y), math.Float64bits(rmax)}
	if v, ok := ix.memo.holes.Load(k); ok {
		ix.memo.hits.Add(1)
		return v.([]geom.Segment)
	}
	ix.memo.misses.Add(1)
	hr := visibility.HoleRaysOf(p, rmax, ix.obs, ix.LineOfSight)
	v, _ := ix.memo.holes.LoadOrStore(k, hr)
	return v.([]geom.Segment)
}

// RetainViewpoints drops every memo entry whose viewpoint is not one of
// pts, so the memos hold only live viewpoints: an incremental session
// calls it with its current device positions before each solve, as
// Certificates keeps only the positions of its last call. Dropping an
// entry costs a recomputation if its viewpoint is queried again, never a
// different answer.
func (ix *Index) RetainViewpoints(pts []geom.Vec) {
	keep := make(map[posKey]struct{}, len(pts))
	for _, p := range pts {
		keep[keyOf(p)] = struct{}{}
	}
	drop := func(m *sync.Map, key func(k any) posKey) {
		m.Range(func(k, _ any) bool {
			if _, ok := keep[key(k)]; !ok {
				m.Delete(k)
			}
			return true
		})
	}
	asPos := func(k any) posKey { return k.(posKey) }
	drop(&ix.memo.shadows, asPos)
	drop(&ix.memo.events, asPos)
	drop(&ix.memo.holes, func(k any) posKey { r := k.(rayKey); return posKey{r.x, r.y} })
}

// MemoLen returns the number of entries the per-viewpoint memos hold.
func (ix *Index) MemoLen() int {
	n := 0
	count := func(_, _ any) bool { n++; return true }
	ix.memo.shadows.Range(count)
	ix.memo.events.Range(count)
	ix.memo.holes.Range(count)
	return n
}
