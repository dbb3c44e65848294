// Package pdcs implements Practical Dominating Coverage Set extraction
// (Section 4.2): Algorithm 1 (the rotating sweep at a fixed point),
// Algorithm 2 (area case, realized over the critical candidate positions
// from internal/discretize), and the dominance filtering that discards
// strategies whose coverage is subsumed by another strategy of the same
// charger type.
package pdcs

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"hipo/internal/discretize"
	"hipo/internal/geom"
	"hipo/internal/hipotrace"
	"hipo/internal/model"
	"hipo/internal/power"
	"hipo/internal/schedule"
	"hipo/internal/visindex"
)

// DevPower records the approximated charging power a candidate strategy
// delivers to one device.
type DevPower struct {
	Device int
	Power  float64
}

// Candidate is a candidate strategy together with the devices it covers and
// the piecewise-approximated power each receives.
type Candidate struct {
	S      model.Strategy
	Covers []DevPower // sorted by device index
}

// TotalPower returns the sum of approximated powers the candidate delivers.
func (c *Candidate) TotalPower() float64 {
	t := 0.0
	for _, dp := range c.Covers {
		t += dp.Power
	}
	return t
}

// eligible describes a device chargeable from a position, once the charger
// orientation allows it: its direction from the position and its
// approximated power.
type eligible struct {
	device int
	theta  float64 // direction from the charger position to the device
	pw     float64 // approximated charging power
}

// prunePad widens the tiling box past every exact-predicate tolerance
// (the ±geom.Eps range gates) and pads each tile's envelope past the floor
// quantization, mirroring the padding contract of internal/visindex: the
// tile prefilter may only over-approximate.
const prunePad = 1e-6

// eligibleCache precomputes, per device type, the piecewise power levels
// for one charger type so that eligibility checks at thousands of candidate
// positions avoid re-deriving them. It also carries the tile table whose
// per-tile device lists prune every position's device scan, on every
// scenario, and the devices' visibility certificates that answer most of
// its line-of-sight queries. Safe for concurrent use.
type eligibleCache struct {
	sc     *model.Scenario
	q      int
	ct     model.ChargerType
	levels []power.Levels // per device type
	// powerLevels is the total piecewise band count across device types (the
	// K of Lemma 4.1), reported to the tracer once per extraction.
	powerLevels int64
	tracer      *hipotrace.Tracer

	// dirs[j] = geom.FromAngle(Devices[j].Orient) and cosHalf[t] =
	// cos(DeviceTypes[t].Alpha/2), hoisted out of the sector gate that runs
	// millions of times per extraction; the values are the exact floats the
	// gate would recompute, so hoisting changes no bit.
	dirs    []geom.Vec
	cosHalf []float64

	// tiles holds each tile's device prefilter; certs[j] is device j's
	// visibility certificate (nil under brute-force visibility or without
	// obstacles).
	tiles tileTable
	certs []*visindex.DeviceCertificate

	// spare pools the sweep scratches of finished chunks for the next ones,
	// so an extraction makes at most one per worker.
	spareMu sync.Mutex
	// guarded by spareMu
	spare []*sweepScratch
}

func newEligibleCache(sc *model.Scenario, q int, cfg Config) *eligibleCache {
	ct := sc.ChargerTypes[q]
	c := &eligibleCache{sc: sc, q: q, ct: ct}
	levels := int64(0)
	for t := range sc.DeviceTypes {
		pp := sc.Power[q][t]
		c.levels = append(c.levels, power.NewLevels(pp.A, pp.B, ct.DMin, ct.DMax, cfg.Eps1))
		levels += int64(c.levels[t].NumBands())
	}
	c.powerLevels = levels
	pts := make([]geom.Vec, len(sc.Devices))
	c.dirs = make([]geom.Vec, len(sc.Devices))
	for j := range pts {
		pts[j] = sc.Devices[j].Pos
		c.dirs[j] = geom.FromAngle(sc.Devices[j].Orient)
	}
	c.cosHalf = make([]float64, len(sc.DeviceTypes))
	for t := range sc.DeviceTypes {
		c.cosHalf[t] = math.Cos(sc.DeviceTypes[t].Alpha / 2)
	}
	c.tiles = newTileTable(ct.DMax+prunePad, pts)
	if len(sc.Obstacles) > 0 {
		if ix, ok := sc.AttachedVisibilityIndex().(*visindex.Index); ok {
			c.certs = ix.Certificates(pts)
		}
	}
	return c
}

// getScratch hands out a pooled sweep scratch for one chunk, emptied;
// reused is true when it came back from an earlier chunk instead of being
// freshly allocated.
func (c *eligibleCache) getScratch() (scr *sweepScratch, reused bool) {
	c.spareMu.Lock()
	if n := len(c.spare); n > 0 {
		scr = c.spare[n-1]
		c.spare = c.spare[:n-1]
	}
	c.spareMu.Unlock()
	if scr == nil {
		return &sweepScratch{}, false
	}
	scr.raw = scr.raw[:0]
	scr.ends = scr.ends[:0]
	scr.ar.reset()
	return scr, true
}

func (c *eligibleCache) putScratch(scr *sweepScratch) {
	c.spareMu.Lock()
	c.spare = append(c.spare, scr)
	c.spareMu.Unlock()
}

// rangeGates returns the squared charging-range gates with the ±geom.Eps
// tolerances baked in.
func (c *eligibleCache) rangeGates() (dmin2, dmax2 float64) {
	ct := c.ct
	dmin2 = (ct.DMin - geom.Eps) * (ct.DMin - geom.Eps)
	if ct.DMin < geom.Eps {
		dmin2 = 0
	}
	dmax2 = (ct.DMax + geom.Eps) * (ct.DMax + geom.Eps)
	return dmin2, dmax2
}

// at lists, in ascending device order, the devices chargeable from p,
// appending them to buf[:0]: callers pass the previous position's slice
// back in once its contents have been copied into candidate Covers. Only
// the devices of p's tile list are tried; outside the tiling no device is
// within d_max + prunePad, so none is in range.
func (c *eligibleCache) at(p geom.Vec, buf []eligible) []eligible {
	certified, exact := 0, 0
	dmin2, dmax2 := c.rangeGates()
	out := buf[:0]
	for _, j := range c.tiles.devices(p, c) {
		out, certified, exact = c.tryDevice(out, int(j), p, dmin2, dmax2, certified, exact)
	}
	c.tracer.Add(hipotrace.CtrLOSQueries, int64(certified+exact))
	c.tracer.Add(hipotrace.CtrLOSCertified, int64(certified))
	c.tracer.Add(hipotrace.CtrLOSExact, int64(exact))
	return out
}

// tryDevice applies the exact eligibility predicates to device j and
// appends it to out when chargeable from p; the tile prefilter only
// decides which provably-out-of-range devices it never sees. Line of
// sight comes from device j's certificate where it decides the query
// (counted in certified) and from the exact predicate otherwise (exact).
func (c *eligibleCache) tryDevice(out []eligible, j int, p geom.Vec, dmin2, dmax2 float64, certified, exact int) ([]eligible, int, int) {
	sc := c.sc
	dev := &sc.Devices[j]
	delta := dev.Pos.Sub(p)
	d2 := delta.Len2()
	if d2 < dmin2 || d2 > dmax2 {
		return out, certified, exact
	}
	d := math.Sqrt(d2)
	// Charger within the device's receiving sector (dot-product form;
	// the radial gate is already checked above).
	dt := &sc.DeviceTypes[dev.Type]
	if dt.Alpha < 2*math.Pi-geom.Eps {
		if d <= geom.Eps {
			return out, certified, exact
		}
		back := delta.Neg() // device → charger
		if back.Dot(c.dirs[j]) < d*c.cosHalf[dev.Type]-geom.Eps*math.Max(1, d) {
			return out, certified, exact
		}
	}
	var cert *visindex.Certificate
	if c.certs != nil {
		cert = c.certs[j].Get()
	}
	switch cert.Classify(p, d) {
	case visindex.Blocked:
		return out, certified + 1, exact
	case visindex.Visible:
		certified++
	default:
		exact++
		if !sc.LineOfSight(p, dev.Pos) {
			return out, certified, exact
		}
	}
	pw := c.levels[dev.Type].Approx(d)
	if pw <= 0 {
		return out, certified, exact
	}
	return append(out, eligible{device: j, theta: delta.Angle(), pw: pw}), certified, exact
}

// sweepScratch carries the pooled working state of one sweep chunk: the
// eligibility slice, the orientation index scratch and the Covers arena
// that serve every position of the chunk, the chunk's raw candidate stream
// with the end of each position's output in it, and the reducer that cuts
// that stream down to its survivors. It goes back to the pool when the
// chunk ends, so an extraction allocates these buffers once per worker,
// not once per chunk, and per-position allocations vanish entirely.
type sweepScratch struct {
	el   []eligible
	idx  []int
	ar   covArena
	raw  []Candidate
	ends []int32
	red  *streamReducer
}

// sweepPointAppend is Algorithm 1: it rotates a charger of type q at point
// p through 360° and appends one candidate per practical dominating
// coverage set to buf, choosing orientations at the critical positions
// where a device is about to fall out of the charging sector. Output
// (order included) is bit-for-bit identical to the seed sweep preserved in
// internal/pdcs/pdcsref; only the bookkeeping differs — a pooled
// eligibility slice and index scratch, direct cover comparisons instead of a
// per-position signature map, and arena-carved Covers built in device
// order with no post-hoc sort.
func sweepPointAppend(sc *model.Scenario, q int, p geom.Vec, cache *eligibleCache, scr *sweepScratch, buf []Candidate) []Candidate {
	el := cache.at(p, scr.el)
	scr.el = el
	if len(el) == 0 {
		return buf
	}
	ct := sc.ChargerTypes[q]
	if ct.Alpha >= 2*math.Pi-geom.Eps {
		// Omnidirectional charger: a single strategy covers everything.
		scr.idx = allIdxInto(scr.idx, len(el))
		buf = append(buf, makeCandidate(p, 0, q, el, scr.idx, &scr.ar))
		return buf
	}
	half := ct.Alpha / 2

	// Device k is covered at orientation φ iff φ ∈ [θ_k − half, θ_k + half].
	// Maximal coverage sets occur just before a device falls out, i.e. at
	// φ = θ_k + half for some k (Algorithm 1 line 4).
	start := len(buf)
	idx := scr.idx
	for _, e := range el {
		phi := geom.NormAngle(e.theta + half)
		idx = idx[:0]
		for i, f := range el {
			if geom.AbsAngleDiff(phi, f.theta) <= half+geom.Eps {
				idx = append(idx, i)
			}
		}
		// First-wins dedup on the covered-device sequence, comparing against
		// already-admitted candidates directly (the sets here are tiny, so
		// this beats the byte-signature map it replaced without changing
		// which candidate survives).
		if hasSameCover(buf[start:], el, idx) {
			continue
		}
		buf = append(buf, makeCandidate(p, phi, q, el, idx, &scr.ar))
	}
	scr.idx = idx[:0]
	kept := filterLocalDominated(buf[start:])
	return buf[:start+len(kept)]
}

// hasSameCover reports whether some candidate already covers exactly the
// devices el[idx] lists (both sides ascending by device index).
func hasSameCover(cands []Candidate, el []eligible, idx []int) bool {
	for k := range cands {
		cv := cands[k].Covers
		if len(cv) != len(idx) {
			continue
		}
		same := true
		for m, i := range idx {
			if cv[m].Device != el[i].device {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

func allIdxInto(out []int, n int) []int {
	out = out[:0]
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

func makeCandidate(p geom.Vec, phi float64, q int, el []eligible, idx []int, ar *covArena) Candidate {
	c := Candidate{S: model.Strategy{Pos: p, Orient: phi, Type: q}}
	cv := ar.alloc(len(idx))
	// el is built in ascending device order and idx ascends into el, so
	// Covers comes out sorted by device with no explicit sort.
	for m, i := range idx {
		cv[m] = DevPower{Device: el[i].device, Power: el[i].pw}
	}
	c.Covers = cv
	return c
}

// filterLocalDominated removes candidates at a single position whose device
// sets are strict subsets of another candidate's (powers at one position are
// identical per device, so set inclusion is the whole story here).
func filterLocalDominated(cands []Candidate) []Candidate {
	out := cands[:0]
	for i := range cands {
		dominated := false
		for j := range cands {
			if i == j {
				continue
			}
			// Signature dedup upstream guarantees distinct sets, so a
			// subset with strictly smaller cardinality is a strict subset.
			if len(cands[i].Covers) < len(cands[j].Covers) &&
				coversSubset(cands[i].Covers, cands[j].Covers) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, cands[i])
		}
	}
	return out
}

// coversSubset reports whether a's device set is a subset of b's (both
// sorted by device).
func coversSubset(a, b []DevPower) bool {
	if len(a) > len(b) {
		return false
	}
	i := 0
	for _, x := range a {
		for i < len(b) && b[i].Device < x.Device {
			i++
		}
		if i >= len(b) || b[i].Device != x.Device {
			return false
		}
	}
	return true
}

// Extract runs the full PDCS extraction for charger type q: candidate
// positions from internal/discretize, then the Algorithm 1 sweep over
// them. Results are deterministic regardless of worker count.
//
//hipo:hotpath
func Extract(sc *model.Scenario, q int, cfg Config) []Candidate {
	return extract(sc, q, cfg, nil)
}

// Extract is the warm Extract: the same candidates, bit for bit, from
// the same pipeline, with st's caches standing in for the work they hold
// (see Store). It ends the sweep store's generation, so the positions this
// call did not use drop out.
//
//hipo:hotpath
func (st *Store) Extract(sc *model.Scenario, q int, cfg Config) []Candidate {
	return extract(sc, q, cfg, st)
}

// extract is the per-type pipeline of both Extracts: the visibility
// index, then discretization under its trace span (a generator, its
// positions and the usefulness filter), then the sweep. Without a store
// every position is generated and filtered and none is held. With one,
// the generator regenerates only the task parts st.Tasks lacks, each
// position is probed in st.Sweep once, only the unheld positions are
// filtered (a held position is certified useful, see Memo), the sweep
// serves the held ones, and the generation ends.
func extract(sc *model.Scenario, q int, cfg Config, st *Store) []Candidate {
	sc = visindex.Ensure(sc)
	endDisc := cfg.Tracer.StartStage(hipotrace.StageDiscretize, typeLabel(q))
	gen := discretize.NewGenerator(sc, q, discretize.Config{Eps1: cfg.Eps1, Workers: cfg.Workers, Tracer: cfg.Tracer})
	if st == nil {
		positions := gen.FilterUseful(gen.Positions(nil))
		endDisc()
		return extractAt(sc, q, positions, cfg, nil, nil)
	}
	positions, held := st.positions(gen)
	endDisc()
	out := extractAt(sc, q, positions, cfg, &st.Sweep, held)
	st.Sweep.end()
	return out
}

// sweepChunk is the number of positions one sweep task covers: one pooled
// scratch serves them all.
const sweepChunk = 256

// chunkOut is what one sweep chunk hands the merge: its survivors (with
// the dominance filter skipped, its whole output) in stream order, seq[i]
// being cands[i]'s position in the chunk's raw stream, and ends[k], where
// the chunk's k-th run stops in that stream. A run is one position with a
// memo, so that held positions can be fed between runs and each run
// stored, and the whole chunk without one. With a memo, own is the chunk's
// full output, staged for Memo.store. All Covers are copied out of the
// pooled arena.
type chunkOut struct {
	cands []Candidate
	seq   []int32
	ends  []int32
	own   []Candidate
}

// ExtractAt is the single Algorithm 1 driver. It sweeps the positions of
// type q in contiguous chunks of sweepChunk on cfg.Workers goroutines
// (0 = GOMAXPROCS). Each chunk's output goes through the chunk's pooled
// streaming reducer, and only its survivors leave the worker. The merge
// feeds them, in position order at their global stream positions, to a
// global reducer and then to the exact global dominance filter (Algorithm 2
// step 9), so the raw stream is never held whole; candidates_raw still
// counts all of it. With cfg.SkipDominanceFilter it returns the
// concatenated per-position outputs instead — each already free of
// candidates dominated at its own position. Nothing is retained past the
// call; returned candidates own their Covers.
//
//hipo:hotpath
func ExtractAt(sc *model.Scenario, q int, positions []geom.Vec, cfg Config) []Candidate {
	return extractAt(visindex.Ensure(sc), q, positions, cfg, nil, nil)
}

// extractAt is ExtractAt with a sweep store. A non-nil memo (one per
// charger type) serves the positions it holds straight from its arena, fed
// to the global reducer at their stream positions, and stores the fresh
// ones, which alone are swept: each chunk stages its full output until the
// merge has stored it. The memo marks both for its next end. held[i] is
// positions[i]'s entry as memo.find returned it since the last end (-1 =
// not held), so no position is probed twice; held must be as long as
// positions with a memo and nil without one. sc must carry its visibility
// index already (visindex.Ensure).
func extractAt(sc *model.Scenario, q int, positions []geom.Vec, cfg Config, memo *Memo, held []int32) []Candidate {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tr := cfg.Tracer
	endSweep := tr.StartStage(hipotrace.StagePDCS, typeLabel(q))
	defer endSweep()
	tr.Add(hipotrace.CtrCandidatePositions, int64(len(positions)))
	cache := newEligibleCache(sc, q, cfg)
	cache.tracer = tr
	tr.Add(hipotrace.CtrPowerLevels, cache.powerLevels)

	// With a memo, only the positions it does not hold are swept; freshAt[k]
	// is the index in positions of the k-th of them.
	fresh := positions
	var freshAt []int32
	if memo != nil {
		fresh = nil
		for i, p := range positions {
			if held[i] < 0 {
				fresh = append(fresh, p)
				freshAt = append(freshAt, int32(i))
			}
		}
	}
	nChunks := (len(fresh) + sweepChunk - 1) / sweepChunk
	chunks := schedule.RunPool(nChunks, workers, func(ci int) chunkOut {
		lo := ci * sweepChunk
		hi := min(lo+sweepChunk, len(fresh))
		scr, reused := cache.getScratch()
		if reused {
			tr.Add(hipotrace.CtrPoolReuse, 1)
		}
		for i := lo; i < hi; i++ {
			scr.raw = sweepPointAppend(sc, q, fresh[i], cache, scr, scr.raw)
			scr.ends = append(scr.ends, int32(len(scr.raw)))
		}
		out := chunkOut{ends: []int32{int32(len(scr.raw))}}
		if memo != nil {
			out.ends = append([]int32(nil), scr.ends...)
		}
		if memo != nil || cfg.SkipDominanceFilter {
			out.own = append([]Candidate(nil), scr.raw...)
			compactCovers(out.own)
		}
		if cfg.SkipDominanceFilter {
			out.cands = out.own
		} else {
			if scr.red == nil {
				scr.red = newStreamReducer(len(sc.Devices))
			}
			out.cands, out.seq = scr.red.survivors(scr.raw)
		}
		cache.putScratch(scr)
		return out
	})

	// The merge walks the stream in position order: held positions' memo
	// candidates and each run's share of its chunk's survivors go
	// to the global reducer (or, with the dominance filter skipped, are
	// concatenated), and the memo is handed every served and stored
	// position.
	var out []Candidate
	var red *streamReducer
	if !cfg.SkipDominanceFilter {
		red = newStreamReducer(len(sc.Devices))
	}
	raw := 0
	next := 0            // index in positions of the next position to feed
	var lent []Candidate // a held position's candidates, rebuilt from the arena
	feedHeld := func(upto int) {
		for ; next < upto; next++ {
			e := held[next]
			memo.serve(e)
			lent = memo.appendCandidates(lent[:0], e, positions[next], q)
			raw += len(lent)
			if red == nil {
				out = append(out, lent...)
				continue
			}
			for l := range lent {
				red.add(&lent[l])
			}
		}
	}
	for ci := range chunks {
		ch := &chunks[ci]
		start, c := int32(0), 0 // the run's first raw index and survivor
		for k, end := range ch.ends {
			if memo != nil {
				i := int(freshAt[ci*sweepChunk+k])
				feedHeld(i)
				memo.store(positions[i], ch.own[start:end])
				next = i + 1
			}
			raw += int(end - start)
			if red == nil {
				out = append(out, ch.cands[start:end]...)
			} else {
				n := c
				for n < len(ch.seq) && ch.seq[n] < end {
					n++
				}
				red.addRun(ch.cands[c:n], ch.seq[c:n], start, end)
				c = n
			}
			start = end
		}
	}
	if memo != nil {
		feedHeld(len(positions))
	}
	tr.Add(hipotrace.CtrCandidatesRaw, int64(raw))
	if red != nil {
		out = FilterDominated(red.final(), len(sc.Devices))
	}
	tr.Add(hipotrace.CtrCandidatesKept, int64(len(out)))
	compactCovers(out)
	return out
}

// typeLabel renders the charger-type span label used in trace breakdowns
// and pprof hipo_detail labels.
func typeLabel(q int) string { return fmt.Sprintf("type-%d", q) }

// Config tunes PDCS extraction.
type Config struct {
	// Eps1 is the approximation parameter ε₁ (Lemma 4.1).
	Eps1 float64
	// Workers bounds the goroutines of each parallel pool within one call
	// (0 = GOMAXPROCS): task generation, the usefulness filter and the
	// position sweep. An incremental session runs its charger types' calls
	// concurrently, each with this bound.
	Workers int
	// SkipDominanceFilter keeps dominated candidates (ablation).
	SkipDominanceFilter bool
	// Tracer, when non-nil, receives stage spans (discretize, pdcs) and the
	// pipeline counters of internal/hipotrace. Sweep hot paths count into
	// locals and flush per call; a nil Tracer costs nothing.
	Tracer *hipotrace.Tracer
}

// FilterDominated removes candidates that are dominated by another
// candidate of the same charger type: B dominates A when B covers every
// device A covers with at least A's power, and the two are not identical
// (ties keep the earlier candidate). Device bitsets accelerate the subset
// tests. no is the number of devices in the scenario.
func FilterDominated(cands []Candidate, no int) []Candidate {
	n := len(cands)
	if n <= 1 {
		return cands
	}
	words := (no + 63) / 64
	bits := make([][]uint64, n)
	total := make([]float64, n)
	for i := range cands {
		bits[i] = make([]uint64, words)
		for _, dp := range cands[i].Covers {
			bits[i][dp.Device/64] |= 1 << (uint(dp.Device) % 64)
		}
		total[i] = cands[i].TotalPower()
	}
	// Sort candidate order by decreasing total power so likely dominators
	// come first; dominance can only come from candidates with ≥ total
	// power (since powers are componentwise ≥). The sort is stable so that
	// equal-total ties resolve by input position — the invariant the
	// streaming reducer's drop rules are proved against, which also makes
	// the survivor choice within mutual-domination classes input-order
	// deterministic rather than an artifact of the sorting algorithm.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return total[order[a]] > total[order[b]] })

	keep := make([]bool, n)
	var kept []int
	for _, i := range order {
		dominated := false
		for _, k := range kept {
			if total[k] < total[i]-1e-15 {
				break // sorted: no later kept candidate can dominate
			}
			if i == k || !bitsSubset(bits[i], bits[k]) {
				continue
			}
			if powersDominated(cands[i].Covers, cands[k].Covers, cands[i].S.Type == cands[k].S.Type) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep[i] = true
			kept = append(kept, i)
		}
	}
	out := cands[:0]
	for i := range cands {
		if keep[i] {
			out = append(out, cands[i])
		}
	}
	return out
}

func bitsSubset(a, b []uint64) bool {
	for w := range a {
		if a[w]&^b[w] != 0 {
			return false
		}
	}
	return true
}

// powersDominated reports whether every covered power in a is ≤ the
// corresponding power in b. sameType guards against comparing strategies of
// different charger types, which occupy different matroid partitions and
// must never dominate one another.
func powersDominated(a, b []DevPower, sameType bool) bool {
	if !sameType {
		return false
	}
	i := 0
	for _, x := range a {
		for i < len(b) && b[i].Device < x.Device {
			i++
		}
		if i >= len(b) || b[i].Device != x.Device || b[i].Power < x.Power-1e-15 {
			return false
		}
	}
	return true
}

// ExtractAll runs Extract for every charger type and returns the per-type
// candidate sets, the ground set of the partition matroid of Section 4.3.
//
//hipo:hotpath
func ExtractAll(sc *model.Scenario, cfg Config) [][]Candidate {
	out := make([][]Candidate, len(sc.ChargerTypes))
	for q := range sc.ChargerTypes {
		out[q] = Extract(sc, q, cfg)
	}
	return out
}
