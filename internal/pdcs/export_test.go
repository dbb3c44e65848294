package pdcs

// Test hooks for the duplicate-index differential (reduce_test.go), which
// imports internal/expt and so cannot live in this package.

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
			r.add(c)
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
