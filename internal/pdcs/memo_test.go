// Bit-identity tests for ExtractAt's memo path: per-position sweep outputs
// cached by earlier calls and reassembled in position order must reproduce
// Extract exactly, however the positions were split across calls — the
// caching contract internal/incremental builds on.
package pdcs_test

import (
	"fmt"
	"math"
	"testing"

	"hipo/internal/corpus"
	"hipo/internal/discretize"
	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/power"
)

// mapMemo is a pdcs.Memo keyed by exact position bits.
type mapMemo struct {
	m            map[[2]uint64][]pdcs.Candidate
	hits, stores int
}

func key(p geom.Vec) [2]uint64 { return [2]uint64{math.Float64bits(p.X), math.Float64bits(p.Y)} }

func (m *mapMemo) Lookup(p geom.Vec) ([]pdcs.Candidate, bool) {
	cs, ok := m.m[key(p)]
	if ok {
		m.hits++
	}
	return cs, ok
}

func (m *mapMemo) Store(p geom.Vec, cs []pdcs.Candidate) {
	m.stores++
	m.m[key(p)] = cs
}

// sweepReassemble fills a memo by sweeping all but the last of `batches`
// interleaved position subsets in separate calls, then extracts over the
// full position list, sweeping only the last subset.
func sweepReassemble(t *testing.T, sc *model.Scenario, q int, cfg pdcs.Config, batches int) []pdcs.Candidate {
	t.Helper()
	sc = fresh(sc)
	positions := discretize.CandidatePositions(sc, q, discretize.Config{Eps1: cfg.Eps1, Workers: cfg.Workers})
	memo := &mapMemo{m: map[[2]uint64][]pdcs.Candidate{}}
	for b := 0; b < batches-1; b++ {
		var sub []geom.Vec
		for i := b; i < len(positions); i += batches {
			sub = append(sub, positions[i])
		}
		pdcs.ExtractAt(sc, q, sub, cfg, memo)
	}
	cached := memo.stores
	out := pdcs.ExtractAt(sc, q, positions, cfg, memo)
	if memo.hits != cached || memo.stores != len(positions) {
		t.Fatalf("memo served %d of %d cached positions and holds %d of %d", memo.hits, cached, memo.stores, len(positions))
	}
	return out
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
