// Differentials of ExtractAt's per-chunk reduction: reducing each chunk of
// the candidate stream on its own and merging the survivors at their global
// stream positions must leave FilterDominated's output bit-identical to
// filtering the whole stream, wherever the chunk boundaries fall.
package pdcs_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"hipo/internal/discretize"
	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/hipotrace"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/power"
)

// chunkPowers are the powers a decoded candidate gives a device: two values
// and their one-ulp twins, paired so that (0.5+ulp, 0.25−ulp) and
// (0.5, 0.25) have the same total and dominate each other only within
// FilterDominated's 1e-15 slack. Ties and exact duplicates are common.
var chunkPowers = [4]float64{0.5, 0.25, 0.5 + 0x1p-53, 0.25 - 0x1p-53}

// decodeChunkStream turns data into a candidate stream over at most 8
// devices and the stream indices to cut it at, three bytes a candidate:
// the covered-device mask, two bits of chunkPowers index per device (the
// upper four devices reuse the lower four's bits), and a byte whose bit 0
// is the charger type and bit 1 cuts the stream before the candidate.
// Every candidate gets its own position, so first-wins tie representatives
// are told apart.
func decodeChunkStream(data []byte) (stream []pdcs.Candidate, cuts []int) {
	for k := 0; k+3 <= len(data); k += 3 {
		mask, pw, ctl := data[k], data[k+1], data[k+2]
		c := pdcs.Candidate{S: model.Strategy{Pos: geom.V(float64(len(stream)), 0), Type: int(ctl & 1)}}
		for d := 0; d < 8; d++ {
			if mask&(1<<d) != 0 {
				c.Covers = append(c.Covers, pdcs.DevPower{Device: d, Power: chunkPowers[(pw>>(2*(d%4)))&3]})
			}
		}
		if ctl&2 != 0 && len(stream) > 0 {
			cuts = append(cuts, len(stream))
		}
		stream = append(stream, c)
	}
	return stream, cuts
}

// checkChunkedReduce requires per-chunk reduction, the global merge and
// FilterDominated to reproduce FilterDominated over the whole stream bit
// for bit, and the merge to count the whole stream.
func checkChunkedReduce(t *testing.T, label string, stream []pdcs.Candidate, devices int, cuts []int) {
	t.Helper()
	want := pdcs.FilterDominated(append([]pdcs.Candidate(nil), stream...), devices)
	surv, raw := pdcs.ReduceChunked(append([]pdcs.Candidate(nil), stream...), devices, cuts)
	got := pdcs.FilterDominated(surv, devices)
	if raw != len(stream) {
		t.Fatalf("%s: merge counted %d of %d stream candidates", label, raw, len(stream))
	}
	if !candidatesBitIdentical([][]pdcs.Candidate{want}, [][]pdcs.Candidate{got}) {
		t.Fatalf("%s (%d candidates, %d cuts): chunked reduction keeps %d, the whole stream %d, or they differ",
			label, len(stream), len(cuts), len(got), len(want))
	}
}

// everyCut cuts n candidates into chunks of k.
func everyCut(n, k int) []int {
	var cuts []int
	for i := k; i < n; i += k {
		cuts = append(cuts, i)
	}
	return cuts
}

// TestChunkedReduceMatchesWholeStream splits synthetic streams (random,
// and built so that exact duplicates and equal-total mutual dominators
// straddle a cut) and the raw extraction streams of benchmark scenarios at
// many chunk boundaries.
func TestChunkedReduceMatchesWholeStream(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 300; n++ {
		data := make([]byte, 3*rng.Intn(200))
		rng.Read(data)
		stream, cuts := decodeChunkStream(data)
		checkChunkedReduce(t, fmt.Sprintf("random-%d", n), stream, 8, cuts)
	}

	// A duplicate pair and a mutual-dominator pair, each cut apart, with a
	// strict dominator of both after them.
	pair := []byte{
		0x03, 0x04, 0x00, // x: devices 0, 1 at (0.5, 0.25)
		0x03, 0x04, 0x02, // exact duplicate of x, behind a cut
		0x03, 0x0e, 0x02, // (0.5+ulp, 0.25−ulp): same total, behind a cut
		0x03, 0x04, 0x03, // x's covers under the other charger type
		0x07, 0x04, 0x02, // devices 0–2: dominates every type-0 one above
	}
	for _, data := range [][]byte{pair, pair[:9], pair[:12]} {
		stream, cuts := decodeChunkStream(data)
		checkChunkedReduce(t, "pairs", stream, 8, cuts)
		checkChunkedReduce(t, "pairs-uncut", stream, 8, nil)
		checkChunkedReduce(t, "pairs-singletons", stream, 8, everyCut(len(stream), 1))
	}

	eps1 := power.Eps1ForEps(wallEps)
	scenarios := []*model.Scenario{expt.BenchScenario(3, 10, 2)}
	if !testing.Short() {
		scenarios = append(scenarios, expt.BenchScenario(20, 100, 10))
	}
	for si, sc := range scenarios {
		sc = fresh(sc)
		for q := range sc.ChargerTypes {
			positions := discretize.CandidatePositions(sc, q, discretize.Config{Eps1: eps1})
			stream := pdcs.ExtractAt(sc, q, positions, pdcs.Config{Eps1: eps1, SkipDominanceFilter: true})
			label := fmt.Sprintf("scenario %d type %d", si, q)
			for _, k := range []int{1, 7, 256, 3000} {
				checkChunkedReduce(t, fmt.Sprintf("%s every %d", label, k), stream, len(sc.Devices), everyCut(len(stream), k))
			}
			// Cut right before the later copy of each exact duplicate, so
			// rule 1's witness always sits in an earlier chunk.
			seen := map[string]bool{}
			var dups []int
			for i := range stream {
				key := fmt.Sprint(stream[i].S.Type, stream[i].Covers)
				if seen[key] {
					dups = append(dups, i)
				}
				seen[key] = true
			}
			checkChunkedReduce(t, label+" at duplicates", stream, len(sc.Devices), dups)
		}
	}
}

// FuzzChunkedReduce decodes bytes into a candidate stream and chunk cuts
// (decodeChunkStream) and checks the same equality as
// TestChunkedReduceMatchesWholeStream.
func FuzzChunkedReduce(f *testing.F) {
	f.Add([]byte{0x03, 0x04, 0x00, 0x03, 0x04, 0x02, 0x03, 0x0e, 0x02, 0x07, 0x04, 0x02})
	f.Add([]byte{0xff, 0x00, 0x00, 0x0f, 0x55, 0x02, 0xf0, 0xaa, 0x03, 0x0f, 0x55, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		stream, cuts := decodeChunkStream(data)
		checkChunkedReduce(t, "fuzz", stream, 8, cuts)
	})
}

// TestExtractAtMemoAcrossChunks holds positions in runs that start and end
// inside and across sweep chunks, so held and fresh positions interleave
// in the merge, and requires the memo run to reproduce a cold ExtractAt bit
// for bit, with the same raw candidate count, at several worker counts and
// with the dominance filter on and off.
func TestExtractAtMemoAcrossChunks(t *testing.T) {
	sc := fresh(expt.BenchScenario(3, 10, 2))
	eps1 := power.Eps1ForEps(wallEps)
	for q := range sc.ChargerTypes {
		positions := discretize.CandidatePositions(sc, q, discretize.Config{Eps1: eps1})
		if len(positions) < 3*256 {
			t.Fatalf("type %d: %d positions span too few sweep chunks", q, len(positions))
		}
		var sub []geom.Vec
		for i, p := range positions {
			if (i/100)%3 == 0 || i%7 == 0 {
				sub = append(sub, p)
			}
		}
		for _, skip := range []bool{false, true} {
			for _, w := range []int{1, 3} {
				cfg := pdcs.Config{Eps1: eps1, Workers: w, SkipDominanceFilter: skip}
				coldTr, memoTr := hipotrace.New(), hipotrace.New()
				cfg.Tracer = coldTr
				want := pdcs.ExtractAt(sc, q, positions, cfg)
				memo := &pdcs.Memo{}
				cfg.Tracer = nil
				pdcs.ExtractAtMemo(sc, q, sub, cfg, memo, find(memo, sub))
				cfg.Tracer = memoTr
				got := pdcs.ExtractAtMemo(sc, q, positions, cfg, memo, find(memo, positions))
				label := fmt.Sprintf("type %d workers %d skip %v", q, w, skip)
				if !candidatesBitIdentical([][]pdcs.Candidate{want}, [][]pdcs.Candidate{got}) {
					t.Fatalf("%s: memo run diverged from the cold run", label)
				}
				if hits, _ := memo.Counts(); hits != len(sub) {
					t.Fatalf("%s: memo served %d of %d held positions", label, hits, len(sub))
				}
				a, b := coldTr.Breakdown().Counters["candidates_raw"], memoTr.Breakdown().Counters["candidates_raw"]
				if a != b {
					t.Fatalf("%s: candidates_raw %d cold, %d with the memo", label, a, b)
				}
			}
		}
	}
}

// TestExtractAtAllocatesLessThanRawStream pins the point of per-chunk
// reduction: cold ExtractAt calls allocate fewer bytes than their raw
// candidate streams would occupy as []Candidate, so the stream is never
// materialised. The bound is over the scenario's charger types together,
// since each call also pays fixed costs (tile lists, one Covers arena
// chunk). Workers 1 makes the pooled chunk scratch a single one.
func TestExtractAtAllocatesLessThanRawStream(t *testing.T) {
	sc := fresh(expt.BenchScenario(9, 20, 8))
	eps1 := power.Eps1ForEps(wallEps)
	var alloc, raw uint64
	for q := range sc.ChargerTypes {
		positions := discretize.CandidatePositions(sc, q, discretize.Config{Eps1: eps1})
		cfg := pdcs.Config{Eps1: eps1, Workers: 1}
		pdcs.ExtractAt(sc, q, positions, cfg) // builds the certificates
		tr := hipotrace.New()
		cfg.Tracer = tr
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pdcs.ExtractAt(sc, q, positions, cfg)
		runtime.ReadMemStats(&after)
		alloc += after.TotalAlloc - before.TotalAlloc
		raw += uint64(tr.Breakdown().Counters["candidates_raw"])
	}
	limit := raw * uint64(unsafe.Sizeof(pdcs.Candidate{}))
	if alloc >= limit {
		t.Fatalf("ExtractAt allocated %d bytes, not below the raw streams' %d (%d candidates)", alloc, limit, raw)
	}
}
