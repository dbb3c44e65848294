package pdcs

// covArena bump-allocates Candidate.Covers storage in chunks so the sweep
// performs one heap allocation per ~8k covered devices instead of one per
// candidate. Carved slices are full-capacity (three-index) sub-slices.
// Between resets the write position only advances, so a slice handed out
// earlier is never re-carved or overwritten. reset rewinds the write
// position to reuse the current chunk; the arena's owner, a pooled sweep
// scratch, resets it only when the next chunk takes the scratch, and every
// Covers of the previous chunk that outlives it (its survivors, the fresh
// outputs staged for a memo) has been copied out by compactCovers first.
type covArena struct {
	buf []DevPower
}

// Arena chunks double from covArenaMinChunk to covArenaChunk DevPower
// entries (4 KiB to 128 KiB), so the few Covers of a small scenario's sweep
// do not pay for a large chunk; a list longer than a chunk gets a chunk of
// its own length.
const (
	covArenaMinChunk = 1 << 8
	covArenaChunk    = 1 << 13
)

func (a *covArena) alloc(n int) []DevPower {
	if n > cap(a.buf)-len(a.buf) {
		sz := min(covArenaChunk, max(covArenaMinChunk, 2*cap(a.buf)))
		a.buf = make([]DevPower, 0, max(sz, n))
	}
	start := len(a.buf)
	a.buf = a.buf[:start+n]
	return a.buf[start : start+n : start+n]
}

// reset rewinds the write position: every slice carved so far may be
// overwritten by the next alloc.
func (a *covArena) reset() { a.buf = a.buf[:0] }

// compactCovers re-points every candidate's Covers at a copy in one fresh
// block, releasing the arena (or memo) storage the slices were carved
// from. The copies are capacity-capped, so an append to one never
// overwrites the next.
func compactCovers(cands []Candidate) {
	n := 0
	for i := range cands {
		n += len(cands[i].Covers)
	}
	block := make([]DevPower, 0, n)
	for i := range cands {
		if len(cands[i].Covers) == 0 {
			continue
		}
		start := len(block)
		block = append(block, cands[i].Covers...)
		cands[i].Covers = block[start:len(block):len(block)]
	}
}
