// Bit-identity tests for ExtractAt's memo path: per-position sweep outputs
// held in a pdcs.Memo by earlier calls and reassembled in position order
// must reproduce Extract exactly, however the positions were split across
// calls — the caching contract internal/incremental builds on.
package pdcs_test

import (
	"fmt"
	"testing"

	"hipo/internal/corpus"
	"hipo/internal/discretize"
	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/power"
)

// sweepReassemble fills a memo by sweeping all but the last of `batches`
// interleaved position subsets in separate calls, then extracts over the
// full position list, sweeping only the last subset. No End runs in
// between, so every batch survives until the reassembly; End afterwards
// keeps exactly the reassembled positions.
func sweepReassemble(t *testing.T, sc *model.Scenario, q int, cfg pdcs.Config, batches int) []pdcs.Candidate {
	t.Helper()
	sc = fresh(sc)
	positions := discretize.CandidatePositions(sc, q, discretize.Config{Eps1: cfg.Eps1, Workers: cfg.Workers})
	memo := &pdcs.Memo{}
	for b := 0; b < batches-1; b++ {
		var sub []geom.Vec
		for i := b; i < len(positions); i += batches {
			sub = append(sub, positions[i])
		}
		pdcs.ExtractAt(sc, q, sub, cfg, memo, find(memo, sub))
	}
	_, cached := memo.Counts()
	out := pdcs.ExtractAt(sc, q, positions, cfg, memo, find(memo, positions))
	if hits, stores := memo.Counts(); hits != cached || stores != len(positions) {
		t.Fatalf("memo served %d of %d cached positions and stored %d of %d", hits, cached, stores, len(positions))
	}
	memo.End()
	if memo.Len() != len(positions) {
		t.Fatalf("memo holds %d positions after End, want %d", memo.Len(), len(positions))
	}
	return out
}

// find probes the memo once per position, as ExtractAt expects.
func find(memo *pdcs.Memo, positions []geom.Vec) []int32 {
	held := make([]int32, len(positions))
	for i, p := range positions {
		held[i] = memo.Find(p)
	}
	return held
}

// TestSweeperMatchesExtract pins the memo contract against Extract across
// corpus families: identical candidates bit for bit, whether the positions
// are swept in one call or spread over several.
func TestSweeperMatchesExtract(t *testing.T) {
	eps1 := power.Eps1ForEps(wallEps)
	for _, fam := range []string{"mixed-type", "clustered-devices", "dense-obstacles"} {
		for i := 0; i < 2; i++ {
			t.Run(fmt.Sprintf("%s/%d", fam, i), func(t *testing.T) {
				sc, err := corpus.BuildModel(11, fam, i)
				if err != nil {
					t.Fatal(err)
				}
				testSweeperScenario(t, sc, eps1)
			})
		}
	}
	t.Run("bench-scenario", func(t *testing.T) {
		testSweeperScenario(t, expt.BenchScenario(3, 10, 2), eps1)
	})
}

func testSweeperScenario(t *testing.T, sc *model.Scenario, eps1 float64) {
	t.Helper()
	for q := range sc.ChargerTypes {
		cfg := pdcs.Config{Eps1: eps1, Workers: 4}
		ref := pdcs.Extract(fresh(sc), q, cfg)
		for _, batches := range []int{1, 3} {
			got := sweepReassemble(t, sc, q, cfg, batches)
			if !candidatesBitIdentical([][]pdcs.Candidate{ref}, [][]pdcs.Candidate{got}) {
				t.Fatalf("type %d: memo reassembly (batches=%d) diverged from Extract", q, batches)
			}
		}
	}
}
