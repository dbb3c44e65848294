package pdcs

import (
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/visindex"
)

// Test hooks for the stream reducer's and the sweep store's differentials
// (reduce_test.go, chunked_test.go, memo_test.go), which import
// internal/expt and so cannot live in this package.

// ExtractAtMemo is ExtractAt with a sweep store (extractAt), and Find and
// End are the store's probe and generation end: the memo differentials
// drive the protocol Store.Extract runs, over position lists of their own.
func ExtractAtMemo(sc *model.Scenario, q int, positions []geom.Vec, cfg Config, memo *Memo, held []int32) []Candidate {
	return extractAt(visindex.Ensure(sc), q, positions, cfg, memo, held)
}

func (m *Memo) Find(p geom.Vec) int32 { return m.find(p) }

func (m *Memo) End() { m.end() }

// mapDups is the map[uint64][]Candidate index rule 1 used before dupTable:
// the reference the flat table is checked against.
type mapDups map[uint64][]Candidate

func (m mapDups) insert(h uint64, c *Candidate) bool {
	for i := range m[h] {
		if sameCoverAndType(&m[h][i], c) {
			return false
		}
	}
	m[h] = append(m[h], *c)
	return true
}

// ReduceStream feeds cands, in order, through a stream reducer for no
// devices and returns its survivors (streamReducer.final). With mapRef
// rule 1 is answered by the map index instead of dupTable.
func ReduceStream(cands []Candidate, no int, mapRef bool) []Candidate {
	r := newStreamReducer(no)
	ref := mapDups{}
	for _, c := range cands {
		if !mapRef {
			r.add(&c)
			continue
		}
		seq := int32(r.raw)
		r.raw++
		if ref.insert(covHash(&c), &c) {
			r.keep(c, seq)
		}
	}
	return r.final()
}

// ReduceChunked cuts cands into chunks at the ascending stream indices
// cuts, reduces each chunk on its own with one reducer reused from chunk
// to chunk (as a sweep worker does), feeds every chunk's survivors to a
// global reducer at their global stream positions (as ExtractAt's merge
// does) and returns the global reducer's survivors and its stream length.
func ReduceChunked(cands []Candidate, no int, cuts []int) ([]Candidate, int) {
	local, global := newStreamReducer(no), newStreamReducer(no)
	for k := 0; k <= len(cuts); k++ {
		lo, hi := 0, len(cands)
		if k > 0 {
			lo = cuts[k-1]
		}
		if k < len(cuts) {
			hi = cuts[k]
		}
		surv, seq := local.survivors(cands[lo:hi])
		global.addRun(surv, seq, 0, int32(hi-lo))
	}
	return global.final(), global.raw
}

// DupInserts inserts cands, in order, into a fresh dupTable (or, with
// mapRef, the map index) under covHash & mask, and returns every verdict.
// A narrow mask forces hash collisions between distinct candidates.
func DupInserts(cands []Candidate, mask uint64, mapRef bool) []bool {
	t, ref := newDupTable(), mapDups{}
	out := make([]bool, len(cands))
	for i := range cands {
		h := covHash(&cands[i]) & mask
		if mapRef {
			out[i] = ref.insert(h, &cands[i])
		} else {
			out[i] = t.insert(h, &cands[i])
		}
	}
	return out
}
