// Differentials of the stream reducer's exact-duplicate index (rule 1)
// against the map[uint64][]Candidate index it replaced: the flat table
// must give every insert the same verdict, so the reducer keeps the same
// first occurrences and its survivors are the same, bit for bit.
package pdcs_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hipo/internal/discretize"
	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/power"
)

// randomStream draws n candidates from a small pool of Covers lists over
// three charger types, so exact duplicates, same-Covers-other-type pairs
// and lists that differ in one power bit all recur.
func randomStream(rng *rand.Rand, n, devices int) []pdcs.Candidate {
	pool := make([][]pdcs.DevPower, 40)
	for i := range pool {
		var cov []pdcs.DevPower
		for d := 0; d < devices; d++ {
			if rng.Intn(3) == 0 {
				cov = append(cov, pdcs.DevPower{Device: d, Power: float64(1+rng.Intn(4)) / 8})
			}
		}
		if i > 0 && rng.Intn(4) == 0 && len(pool[i-1]) > 0 {
			// The previous list with one power nudged by an ulp.
			cov = append([]pdcs.DevPower(nil), pool[i-1]...)
			cov[0].Power *= 1 + 0x1p-52
		}
		pool[i] = cov
	}
	out := make([]pdcs.Candidate, n)
	for i := range out {
		out[i] = pdcs.Candidate{
			S:      model.Strategy{Pos: geom.V(rng.Float64(), rng.Float64()), Type: rng.Intn(3)},
			Covers: pool[rng.Intn(len(pool))],
		}
	}
	return out
}

// TestDupTableMatchesMapIndex inserts random streams into the flat table
// and the map index under the full hash and under hashes cut to 0–4 bits,
// where distinct candidates collide all the time; the table grows several
// times on the longer streams.
func TestDupTableMatchesMapIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 100, 5000} {
		stream := randomStream(rng, n, 12)
		for _, mask := range []uint64{^uint64(0), 0xF, 0x3, 0x1, 0} {
			got := pdcs.DupInserts(stream, mask, false)
			want := pdcs.DupInserts(stream, mask, true)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d mask=%#x: table verdicts differ from the map index", n, mask)
			}
		}
	}
}

// TestStreamReducerMatchesMapIndex runs the reducer with either index over
// random streams, and over the raw candidate streams of the six cold-solve
// benchmark scenarios (BenchScenario seeds 20, 9, 3, 22, 23, 13 at 100
// obstacles, ×10 devices, ε = 0.3), and requires identical survivors.
func TestStreamReducerMatchesMapIndex(t *testing.T) {
	same := func(label string, stream []pdcs.Candidate, devices int) {
		t.Helper()
		got := pdcs.ReduceStream(stream, devices, false)
		want := pdcs.ReduceStream(stream, devices, true)
		if !candidatesBitIdentical([][]pdcs.Candidate{got}, [][]pdcs.Candidate{want}) {
			t.Fatalf("%s: %d survivors with the table, %d with the map index, or they differ", label, len(got), len(want))
		}
	}
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{10, 3000, 20000} {
		same(fmt.Sprintf("random-%d", n), randomStream(rng, n, 12), 12)
	}
	if testing.Short() {
		t.Skip("cold scenarios skipped under -short")
	}
	eps1 := power.Eps1ForEps(0.3)
	for _, seed := range []int64{20, 9, 3, 22, 23, 13} {
		sc := fresh(expt.BenchScenario(seed, 100, 10))
		for q := range sc.ChargerTypes {
			positions := discretize.CandidatePositions(sc, q, discretize.Config{Eps1: eps1})
			raw := pdcs.ExtractAt(sc, q, positions, pdcs.Config{Eps1: eps1, SkipDominanceFilter: true})
			same(fmt.Sprintf("seed %d type %d", seed, q), raw, len(sc.Devices))
		}
	}
}
