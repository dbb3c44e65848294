package pdcs

import (
	"math"
	"sort"
)

// streamReducer discards, while candidates stream out of the chunked sweep,
// candidates that FilterDominated provably discards — so the overhauled
// extraction never holds the full raw candidate set (hundreds of thousands
// at benchmark scale) through to the global dominance filter. The final
// output after running FilterDominated over the survivors is bit-for-bit
// identical to running it over the whole raw stream.
//
// Why dropping is safe. FilterDominated processes candidates in stable
// order of decreasing total power (ties resolve to stream order) and drops
// x when an already-kept k with total ≥ total(x) − 1e-15 covers a superset
// of x's devices with per-device power ≥ x's − 1e-15. The reducer uses two
// strictly stronger, zero-slack rules:
//
//  1. Exact duplicate: some earlier y has the same charger type and a
//     bitwise-identical Covers list. If the filter keeps y, then y (sorted
//     before x: equal totals, earlier stream position) dominates x, so x is
//     dropped. If the filter drops y via some kept k, then k's powers are
//     ≥ y's − 1e-15 = x's − 1e-15, k's total is ≥ total(y) − 1e-15 =
//     total(x) − 1e-15 (so x's scan reaches k before its early break), and
//     k sorts before y and hence before x — so k drops x too.
//
//  2. Strict domination: some y (either stream direction) with
//     total(y) > total(x), or total(y) == total(x) and an earlier stream
//     position, covers a superset of x's devices with per-device power ≥
//     x's, compared exactly. y sorts strictly before x. If the filter keeps
//     y it drops x directly; if it drops y via kept k, the same chaining as
//     above gives k's powers ≥ x's − 1e-15 and total(k) ≥ total(x) − 1e-15
//     with k sorted before x, so k drops x. The single chaining step is
//     what keeps the 1e-15 slack from compounding — the reducer's own
//     comparisons carry no slack at all.
//
// Removing such candidates from the filter's input changes neither which
// remaining candidates are kept (kept candidates never consult dropped
// ones) nor their order, so the survivors' filtered output is identical.
//
// Why reducing per chunk first is safe too. ExtractAt runs one reducer per
// sweep chunk, over that chunk's stream alone, and feeds the survivors to a
// global reducer at their global stream positions (addRun). A chunk's
// stream is a contiguous stretch of the full stream (with a memo, held
// positions' candidates may fall between its positions), so chunk-local
// stream order agrees with global order, and rules 1 and 2 judge a drop
// only by exact covers, exact totals and relative stream order. A witness y
// that justifies dropping x inside the chunk therefore justifies it in the
// full stream, and the argument above makes each such drop one
// FilterDominated makes on the full stream. The same holds for the global
// reducer, whose input is a subsequence of the full stream in the same
// order. Every candidate that reaches FilterDominated is thus a full-stream
// candidate, in full-stream order, and every one removed is one it drops,
// so by the paragraph above the output is unchanged — first-wins tie
// representatives included.
type streamReducer struct {
	words  int
	raw    int // stream length so far
	thresh int // ents length that triggers the next reduce pass
	ents   []reduceEnt
	seen   dupTable

	// reduce-pass scratch, reused across passes.
	bits    []uint64
	byDev   [][]int32
	keptIdx []int32
}

type reduceEnt struct {
	cand  Candidate
	total float64
	seq   int32
}

// reduceTrigger is the entry count that schedules a dominance pass; between
// passes the reducer only performs O(1) duplicate probes per candidate.
const reduceTrigger = 8192

func newStreamReducer(no int) *streamReducer {
	return &streamReducer{
		words:  (no + 63) / 64,
		thresh: reduceTrigger,
		seen:   newDupTable(),
		byDev:  make([][]int32, no),
	}
}

// reset empties the reducer for a new stream, keeping its buffers.
func (r *streamReducer) reset() {
	r.raw = 0
	r.thresh = reduceTrigger
	r.ents = r.ents[:0]
	r.seen.reset()
}

// add feeds the next candidate of the raw stream (in sweep output order).
func (r *streamReducer) add(c *Candidate) {
	r.addAt(c, int32(r.raw))
	r.raw++
}

// addAt feeds candidate c at stream position seq.
func (r *streamReducer) addAt(c *Candidate, seq int32) {
	if !r.seen.insert(covHash(c), c) {
		return // rule 1: an identical earlier candidate wins the tie
	}
	r.keep(*c, seq)
}

// addRun feeds a stretch of the stream that a chunk's reducer has cut down
// to its survivors: the stretch is [from, to) in the chunk's numbering,
// cands[i] sat at position seq[i] of it, and it starts where the stream
// stands.
func (r *streamReducer) addRun(cands []Candidate, seq []int32, from, to int32) {
	base := int32(r.raw) - from
	for i := range cands {
		r.addAt(&cands[i], base+seq[i])
	}
	r.raw += int(to - from)
}

// survivors reduces one chunk's stream on its own, from an empty reducer:
// rule 1 as the candidates stream in, then one closing reduce pass. It
// returns the survivors in stream order with their stream positions, their
// Covers copied out of raw's storage so the caller may reuse it.
func (r *streamReducer) survivors(raw []Candidate) (cands []Candidate, seq []int32) {
	r.reset()
	for i := range raw {
		r.add(&raw[i])
	}
	r.reduce()
	r.sortBySeq()
	cands = make([]Candidate, len(r.ents))
	seq = make([]int32, len(r.ents))
	for i := range r.ents {
		cands[i], seq[i] = r.ents[i].cand, r.ents[i].seq
	}
	compactCovers(cands)
	return cands, seq
}

// keep enters a candidate that passed rule 1, at stream position seq, and
// runs a dominance pass when the entries reach the trigger.
func (r *streamReducer) keep(c Candidate, seq int32) {
	r.ents = append(r.ents, reduceEnt{cand: c, total: c.TotalPower(), seq: seq})
	if len(r.ents) >= r.thresh {
		r.reduce()
		r.thresh = max(reduceTrigger, 2*len(r.ents))
	}
}

// dupTable is rule 1's exact-duplicate index: every distinct (charger
// type, Covers) seen so far, in stream order, under a flat open-addressing
// table of slots holding a candidate's hash and 1 + its index (0 = empty).
// The slots hold no pointers, so the garbage collector skips them, and a
// probe step compares the hash in the slot before it reads a candidate.
// The table doubles at load factor ½, so a probe always reaches an empty
// slot.
type dupTable struct {
	slots []dupSlot
	cands []Candidate
	shift uint // 64 − log₂(len(slots)): Fibonacci hashing keeps the top bits
}

type dupSlot struct {
	h uint64
	k int32
}

// dupTableBits is log₂ of the initial slot count: small, because a solve
// of a few devices streams only a handful of candidates per charger type.
const dupTableBits = 4

func newDupTable() dupTable {
	return dupTable{slots: make([]dupSlot, 1<<dupTableBits), shift: 64 - dupTableBits}
}

// reset empties the table, keeping its grown slot array.
func (t *dupTable) reset() {
	clear(t.slots)
	t.cands = t.cands[:0]
}

func (t *dupTable) home(h uint64) uint64 { return (h * 0x9E3779B97F4A7C15) >> t.shift }

// insert adds c, whose covHash is h, and reports true, unless an identical
// candidate was inserted before: then it reports false and keeps the
// earlier one.
func (t *dupTable) insert(h uint64, c *Candidate) bool {
	mask := uint64(len(t.slots) - 1)
	for s := t.home(h); ; s = (s + 1) & mask {
		sl := &t.slots[s]
		if sl.k == 0 {
			break
		}
		if sl.h == h && sameCoverAndType(&t.cands[sl.k-1], c) {
			return false
		}
	}
	t.cands = append(t.cands, *c)
	if 2*len(t.cands) > len(t.slots) {
		t.grow()
	}
	t.place(h, int32(len(t.cands)))
	return true
}

// place puts 1 + index k under hash h into the first empty slot of its
// probe sequence.
func (t *dupTable) place(h uint64, k int32) {
	mask := uint64(len(t.slots) - 1)
	s := t.home(h)
	for t.slots[s].k != 0 {
		s = (s + 1) & mask
	}
	t.slots[s] = dupSlot{h: h, k: k}
}

// grow doubles the slot table and re-places every held candidate.
func (t *dupTable) grow() {
	old := t.slots
	t.slots = make([]dupSlot, 2*len(old))
	t.shift--
	for _, sl := range old {
		if sl.k != 0 {
			t.place(sl.h, sl.k)
		}
	}
}

// reduce runs one zero-slack dominance pass over the current entries.
//
//hipo:order-invariant the seq tiebreak makes the dominance sort total, so the kept set is identical for every arrival interleaving of the same candidate stream
func (r *streamReducer) reduce() {
	// Exactly FilterDominated's stable processing order, made total by the
	// explicit stream-position tiebreak.
	sort.Slice(r.ents, func(a, b int) bool {
		//lint:ignore floatcmp the reducer's safety proof is against FilterDominated's exact stable sort order, so the tiebreak must engage on exact total equality — a tolerance here would be unsound
		if r.ents[a].total != r.ents[b].total {
			return r.ents[a].total > r.ents[b].total
		}
		return r.ents[a].seq < r.ents[b].seq
	})
	w := r.words
	if need := len(r.ents) * w; cap(r.bits) < need {
		r.bits = make([]uint64, need)
	} else {
		r.bits = r.bits[:need]
		clear(r.bits)
	}
	for i := range r.ents {
		for _, dp := range r.ents[i].cand.Covers {
			r.bits[i*w+dp.Device/64] |= 1 << (uint(dp.Device) % 64)
		}
	}
	for d := range r.byDev {
		r.byDev[d] = r.byDev[d][:0]
	}
	r.keptIdx = r.keptIdx[:0]
	for i := range r.ents {
		x := &r.ents[i]
		if len(x.cand.Covers) == 0 {
			r.keptIdx = append(r.keptIdx, int32(i))
			continue
		}
		bx := r.bits[i*w : i*w+w]
		dominated := false
		// Any dominator covers all of x's devices, in particular the first
		// one — probing that device's inverted list touches a handful of
		// survivors instead of the whole kept set.
		for _, k := range r.byDev[x.cand.Covers[0].Device] {
			y := &r.ents[k]
			if y.cand.S.Type == x.cand.S.Type &&
				bitsSubset(bx, r.bits[int(k)*w:int(k)*w+w]) &&
				powersCoveredExact(x.cand.Covers, y.cand.Covers) {
				dominated = true // rule 2: y sorted strictly before x
				break
			}
		}
		if dominated {
			continue
		}
		r.keptIdx = append(r.keptIdx, int32(i))
		for _, dp := range x.cand.Covers {
			r.byDev[dp.Device] = append(r.byDev[dp.Device], int32(i))
		}
	}
	out := r.ents[:0] // keptIdx ascends, so in-place compaction is safe
	for _, i := range r.keptIdx {
		out = append(out, r.ents[i])
	}
	r.ents = out
}

// final returns the surviving candidates in original stream order, ready
// for the exact FilterDominated pass.
func (r *streamReducer) final() []Candidate {
	r.sortBySeq()
	out := make([]Candidate, len(r.ents))
	for i := range r.ents {
		out[i] = r.ents[i].cand
	}
	return out
}

func (r *streamReducer) sortBySeq() {
	sort.Slice(r.ents, func(a, b int) bool { return r.ents[a].seq < r.ents[b].seq })
}

// powersCoveredExact reports whether every covered power in a is ≤ the
// corresponding power in b with zero tolerance — the slack-free counterpart
// of powersDominated (the caller checks the device subset via bitsets).
func powersCoveredExact(a, b []DevPower) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i].Device < x.Device {
			i++
		}
		if i >= len(b) || b[i].Device != x.Device || b[i].Power < x.Power {
			return false
		}
	}
	return true
}

// sameCoverAndType reports whether two candidates have the same charger
// type and bitwise-identical Covers.
func sameCoverAndType(a, b *Candidate) bool {
	if a.S.Type != b.S.Type || len(a.Covers) != len(b.Covers) {
		return false
	}
	for i := range a.Covers {
		if a.Covers[i].Device != b.Covers[i].Device ||
			math.Float64bits(a.Covers[i].Power) != math.Float64bits(b.Covers[i].Power) {
			return false
		}
	}
	return true
}

// covHash is an FNV-1a hash of a candidate's charger type and Covers,
// keying the exact-duplicate probe of rule 1.
func covHash(c *Candidate) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(c.S.Type))
	for _, dp := range c.Covers {
		mix(uint64(dp.Device))
		mix(math.Float64bits(dp.Power))
	}
	return h
}
