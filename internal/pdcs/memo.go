package pdcs

import (
	"math"
	"math/bits"

	"hipo/internal/geom"
	"hipo/internal/model"
)

// Memo is the pointer-free per-position sweep store of one charger type:
// it lends ExtractAt the Algorithm 1 outputs of positions swept by earlier
// calls. internal/incremental keeps one per charger type for a session's
// lifetime. The zero value is an empty store.
//
// Layout. entries is a dense array of held positions, each naming a run of
// recs; slots is an open-addressing index over the position bits (linear
// probing, load ≤ ½) holding entry index + 1; a record is one candidate's
// orientation plus where its Covers lie in chunks, an arena of DevPower
// chunks that are never reallocated. None of the bulk arrays has a pointer
// in its element type (TestMemoIsPointerFree), so the garbage collector has
// nothing to scan, and Covers carved from a chunk stay valid while later
// stores of the same ExtractAt call open new chunks.
//
// Correctness. A position's sweep output is a pure function of the
// scenario geometry within d_max of it, the charger type, ε₁ and the
// device numbering. A holder that drops (DropIf) every entry a mutation
// could reach and renumbers covers when a device is removed (RemoveDevice)
// reproduces a fresh extraction bit for bit.
//
// Probing. The caller probes each position once (Find) and hands the
// entries to ExtractAt, which serves them without probing again.
//
// Liveness. ExtractAt marks every entry it serves or stores. End drops the
// entries no call marked since the previous End and compacts the store in
// place once dropped records exceed half the live ones, so after End the
// held records (and entries) never exceed 1.5× the live ones.
//
// Usefulness certificate: held ⇒ useful. internal/incremental hands
// ExtractAt only positions that passed discretize's FilterUseful or were
// held already, so by induction every entry was useful when stored. The
// verdict is "some device lies within [d_min − geom.Eps, d_max + geom.Eps]
// of the position": it reads only the positions of the devices within
// d_max + prunePad, through an exact distance gate, and no obstacle,
// orientation, device type or device index. Every device mutation (add,
// remove, move) drops the entries within d_max + invPad (1e-3, beyond the
// 1e-9 gate) of the device's old and new positions, so every surviving
// entry sees the same devices within reach and keeps its verdict; obstacle
// inserts and End only ever drop entries. Hence a held position is useful
// at every solve, and only the positions the store does not hold need the
// FilterUseful test.
type Memo struct {
	slots   []int32
	shift   uint // 64 − log₂ len(slots)
	used    int  // non-empty slots
	entries []memoEntry
	// marked has bit e set when entry e was served or stored since the
	// last End.
	marked []uint64
	recs   []memoRec
	// chunks[c][:len] is the filled prefix of arena chunk c.
	chunks [][]DevPower

	// liveEnt and liveRecs count the live entries and their records; the
	// rest of entries and recs is dropped.
	liveEnt, liveRecs int
	hits, stores      int
}

// memoEntry is one position: its exact bits and its run of records.
type memoEntry struct {
	x, y  uint64
	first int32
	n     int32 // record count; -1 once dropped
}

// memoRec is one stored candidate: its orientation (the position is the
// entry's, the type the store's) and its Covers, chunks[chunk][off:off+n].
type memoRec struct {
	orient        float64
	chunk, off, n int32
}

// Arena chunks double from memoMinChunk to memoChunk DevPower entries
// (4 KiB to 128 KiB), so a small store does not pin a large chunk; a Covers
// list longer than a chunk gets a chunk of its own length.
const (
	memoMinChunk = 1 << 8
	memoChunk    = 1 << 13
)

// memoMinSlots is the smallest index table.
const memoMinSlots = 16

func posBits(p geom.Vec) (x, y uint64) {
	return math.Float64bits(p.X), math.Float64bits(p.Y)
}

// slot returns the index slot of position (x, y) and the entry it names,
// dropped or not; when absent, e is -1 and s is the empty slot an insert
// takes. The table must be non-empty.
func (m *Memo) slot(x, y uint64) (s uint64, e int32) {
	mask := uint64(len(m.slots) - 1)
	h := (x*0x9E3779B97F4A7C15 ^ y) * 0xC2B2AE3D27D4EB4F
	for s = h >> m.shift; ; s = (s + 1) & mask {
		v := m.slots[s]
		if v == 0 {
			return s, -1
		}
		if en := &m.entries[v-1]; en.x == x && en.y == y {
			return s, v - 1
		}
	}
}

// Find returns p's live entry, or -1: the probe a caller makes once per
// position and hands ExtractAt. Entry indices stay valid until the next
// End.
func (m *Memo) Find(p geom.Vec) int32 {
	if m.liveEnt == 0 {
		return -1
	}
	x, y := posBits(p)
	_, e := m.slot(x, y)
	if e >= 0 && m.entries[e].n < 0 {
		return -1
	}
	return e
}

// Len returns the number of held positions.
func (m *Memo) Len() int { return m.liveEnt }

// Counts returns how many positions ExtractAt has served from the store
// (hits) and stored into it over the store's lifetime.
func (m *Memo) Counts() (hits, stores int) { return m.hits, m.stores }

// serve counts and marks entry e, which ExtractAt is about to serve.
func (m *Memo) serve(e int32) {
	m.hits++
	m.mark(e)
}

func (m *Memo) mark(e int32) { m.marked[e/64] |= 1 << (uint(e) % 64) }

// appendCandidates appends the candidates of entry e, held for position p
// of charger type q, to dst. Their Covers alias the arena,
// capacity-capped so an append copies.
func (m *Memo) appendCandidates(dst []Candidate, e int32, p geom.Vec, q int) []Candidate {
	en := m.entries[e]
	for _, rec := range m.recs[en.first : en.first+en.n] {
		end := rec.off + rec.n
		dst = append(dst, Candidate{
			S:      model.Strategy{Pos: p, Orient: rec.orient, Type: q},
			Covers: m.chunks[rec.chunk][rec.off:end:end],
		})
	}
	return dst
}

// store holds cands as p's sweep output (replacing any entry of p) and
// marks it.
func (m *Memo) store(p geom.Vec, cands []Candidate) {
	if 2*(m.used+1) > len(m.slots) {
		m.reindex()
	}
	x, y := posBits(p)
	s, old := m.slot(x, y)
	if old >= 0 {
		m.drop(old)
	} else {
		m.used++
	}
	e := int32(len(m.entries))
	m.slots[s] = e + 1
	m.entries = append(m.entries, memoEntry{x: x, y: y, first: int32(len(m.recs)), n: int32(len(cands))})
	if int(e/64) >= len(m.marked) {
		m.marked = append(m.marked, 0)
	}
	m.mark(e)
	for i := range cands {
		chunk, off := m.carve(cands[i].Covers)
		m.recs = append(m.recs, memoRec{orient: cands[i].S.Orient, chunk: chunk, off: off, n: int32(len(cands[i].Covers))})
	}
	m.liveEnt++
	m.liveRecs += len(cands)
	m.stores++
}

// carve appends cv to the arena and returns where it landed.
func (m *Memo) carve(cv []DevPower) (chunk, off int32) {
	c := len(m.chunks) - 1
	if c < 0 || cap(m.chunks[c])-len(m.chunks[c]) < len(cv) {
		size := memoMinChunk
		if c >= 0 {
			size = min(memoChunk, max(size, 2*cap(m.chunks[c])))
		}
		m.chunks = append(m.chunks, make([]DevPower, 0, max(size, len(cv))))
		c++
	}
	off = int32(len(m.chunks[c]))
	m.chunks[c] = append(m.chunks[c], cv...)
	return int32(c), off
}

// drop kills entry e; its slot stays until the next reindex, and find
// reports it absent.
func (m *Memo) drop(e int32) {
	en := &m.entries[e]
	if en.n < 0 {
		return
	}
	m.liveEnt--
	m.liveRecs -= int(en.n)
	en.n = -1
}

// DropIf drops every held position for which drop reports true.
func (m *Memo) DropIf(drop func(p geom.Vec) bool) {
	for e := range m.entries {
		en := &m.entries[e]
		if en.n >= 0 && drop(geom.Vec{X: math.Float64frombits(en.x), Y: math.Float64frombits(en.y)}) {
			m.drop(int32(e))
		}
	}
}

// RemoveDevice renumbers covers for the removal of device j: later devices
// shift down by one. The caller must already have dropped every entry
// whose output covers j.
func (m *Memo) RemoveDevice(j int) {
	for _, ch := range m.chunks {
		for i := range ch {
			if ch[i].Device > j {
				ch[i].Device--
			}
		}
	}
}

// End closes a generation: it drops the entries no ExtractAt call served
// or stored since the previous End and compacts the store once dropped
// records (or entries) exceed half the live ones.
func (m *Memo) End() {
	for e := range m.entries {
		if m.marked[e/64]&(1<<(uint(e)%64)) == 0 {
			m.drop(int32(e))
		}
	}
	clear(m.marked)
	if 2*(len(m.recs)-m.liveRecs) > m.liveRecs || 2*(len(m.entries)-m.liveEnt) > m.liveEnt {
		m.compact()
	}
}

// compact slides the live entries, records and Covers down in place, in
// storage order, releases the arena chunks past the last live Covers, and
// rebuilds the index. Storage order is the order of entries, of records
// and of arena offsets alike, so the write cursor never passes the read
// cursor and a chunk too short for a list is skipped, never overrun.
func (m *Memo) compact() {
	we, wr := 0, int32(0)
	wc, wo := int32(0), int32(0)
	for e := range m.entries {
		en := m.entries[e]
		if en.n < 0 {
			continue
		}
		first := wr
		for r := en.first; r < en.first+en.n; r++ {
			rec := m.recs[r]
			for int(rec.n) > cap(m.chunks[wc])-int(wo) {
				m.chunks[wc] = m.chunks[wc][:wo]
				wc, wo = wc+1, 0
			}
			if wc != rec.chunk || wo != rec.off {
				dst := m.chunks[wc][:cap(m.chunks[wc])]
				copy(dst[wo:wo+rec.n], m.chunks[rec.chunk][rec.off:rec.off+rec.n])
			}
			rec.chunk, rec.off = wc, wo
			wo += rec.n
			m.recs[wr] = rec
			wr++
		}
		en.first = first
		m.entries[we] = en
		we++
	}
	m.entries = m.entries[:we]
	m.recs = m.recs[:wr]
	if len(m.chunks) > 0 {
		m.chunks[wc] = m.chunks[wc][:wo]
		clear(m.chunks[wc+1:])
		m.chunks = m.chunks[:wc+1]
	}
	m.marked = m.marked[:(we+63)/64]
	m.reindex()
}

// reindex rebuilds the index over the live entries, sized so it holds at
// most a third of its slots and can grow to half before the next rebuild.
func (m *Memo) reindex() {
	size := memoMinSlots
	for size < 3*(m.liveEnt+1) {
		size <<= 1
	}
	if size == len(m.slots) {
		clear(m.slots)
	} else {
		m.slots = make([]int32, size)
	}
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	m.used = 0
	for e := range m.entries {
		en := &m.entries[e]
		if en.n < 0 {
			continue
		}
		s, _ := m.slot(en.x, en.y)
		m.slots[s] = int32(e) + 1
		m.used++
	}
}
