package visindex

import "hipo/internal/model"

// Ensure returns a scenario with a current visibility index attached: sc
// itself when one is already present and still matches the obstacle set,
// otherwise a deep clone carrying a fresh index. Cloning keeps the caller's
// scenario untouched — attaching in place would race when the same scenario
// value is solved concurrently — and the clone's obstacle geometry is owned
// by the index from then on. Pipeline entry points (internal/core,
// internal/pdcs) call Ensure once per solve so every downstream occlusion
// query is served by the same index.
//
// Staleness: an *Index is keyed to the obstacle geometry at New time (grid
// cells, per-obstacle caches, Shadow/EventAngles/HoleRays memos). If the
// scenario's obstacles were mutated after attach, the old index would answer
// LOS from the old world — Ensure detects this via the obstacle fingerprint
// and rebuilds instead of reusing. Attached indexes of other types cannot be
// fingerprinted and are trusted as before: the differential tests attach
// model.BruteForce to run the solver's exhaustive-scan reference arm.
//
//hipo:hotpath
func Ensure(sc *model.Scenario) *model.Scenario {
	switch ix := sc.AttachedVisibilityIndex().(type) {
	case nil:
	case *Index:
		if ix.MatchesObstacles(sc.Obstacles) {
			return sc
		}
	default:
		return sc
	}
	out := sc.Clone()
	out.AttachVisibilityIndex(New(out))
	return out
}
