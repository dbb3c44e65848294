package discretize_test

import (
	"testing"

	"hipo/internal/discretize"
	"hipo/internal/expt"
	"hipo/internal/hipotrace"
	"hipo/internal/power"
	"hipo/internal/visindex"
)

// TestCandidatePositionsWorkerInvariant checks that the per-device tables,
// parallel generation and the chunked usefulness filter return identical
// bits at every worker count. CI runs
// it under the race detector with -count=10.
func TestCandidatePositionsWorkerInvariant(t *testing.T) {
	sc := visindex.Ensure(expt.BenchScenario(3, 12, 4))
	for q := range sc.ChargerTypes {
		tr := hipotrace.New()
		want := discretize.CandidatePositions(sc, q, discretize.Config{Eps1: power.Eps1ForEps(0.3), Workers: 1, Tracer: tr})
		// At least two of FilterUseful's 1024-position chunks, so 2 and 8
		// workers split the filter.
		if len(want) < 2*1024 {
			t.Fatalf("type %d: only %d positions; the filter would not split", q, len(want))
		}
		raw := tr.Breakdown().Counters["positions_raw"]
		if raw < int64(len(want)) {
			t.Fatalf("type %d: positions_raw %d < %d positions", q, raw, len(want))
		}
		for _, w := range []int{2, 8} {
			got := discretize.CandidatePositions(sc, q, discretize.Config{Eps1: power.Eps1ForEps(0.3), Workers: w})
			if !sameBits(got, want) {
				t.Fatalf("type %d: %d workers returned %d positions, 1 worker %d", q, w, len(got), len(want))
			}
		}
	}
}
