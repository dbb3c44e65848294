package incremental

import "hipo/internal/geom"

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
