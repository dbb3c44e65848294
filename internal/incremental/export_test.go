package incremental

import "hipo/internal/geom"

// ExtractPositions returns the positions the next Solve hands
// pdcs.ExtractAt for charger type q, computed by the same code path. Like
// Solve, it regenerates dirty tasks into the task cache.
func (s *Session) ExtractPositions(q int) []geom.Vec {
	return s.positions(q, s.discretizeConfig())
}
