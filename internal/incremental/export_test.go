package incremental

import (
	"hipo/internal/discretize"
	"hipo/internal/geom"
	"hipo/internal/visindex"
)

// ExtractPositions returns the positions the next Solve hands
// pdcs.ExtractAt for charger type q, computed by the same code path. Like
// Solve, it regenerates dirty tasks into the task cache.
func (s *Session) ExtractPositions(q int) []geom.Vec {
	pts, _ := s.positions(q, s.discretizeConfig())
	return pts
}

// MemoCounts returns each charger type's sweep-store counters
// (pdcs.Memo.Counts) and held-position count.
func (s *Session) MemoCounts() [][3]int {
	out := make([][3]int, len(s.types))
	for q, ts := range s.types {
		hits, stores := ts.sweep.Counts()
		out[q] = [3]int{hits, stores, ts.sweep.Len()}
	}
	return out
}

// TaskCache returns charger type q's task cache.
func (s *Session) TaskCache(q int) *discretize.TaskCache { return s.types[q].tasks }

// ViewpointMemoLen returns the entry count of the scenario visibility
// index's per-viewpoint memos.
func (s *Session) ViewpointMemoLen() int {
	return s.sc.AttachedVisibilityIndex().(*visindex.Index).MemoLen()
}

// ViewpointMemoStats returns the hit and miss counts of the scenario
// visibility index's per-viewpoint memos.
func (s *Session) ViewpointMemoStats() (hits, misses int64) {
	return s.sc.AttachedVisibilityIndex().(*visindex.Index).MemoStats()
}
