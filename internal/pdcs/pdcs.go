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
	"math/bits"
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

// prunePad widens the device-grid query radius past every exact-predicate
// tolerance (the ±geom.Eps range gates), mirroring the padding contract of
// internal/visindex: the grid may only over-approximate.
const prunePad = 1e-6

// eligibleCache precomputes, per device type, the piecewise power levels
// for one charger type so that eligibility checks at thousands of candidate
// positions avoid re-deriving them. It also carries the device grid and
// the viewpoint tiling that prune each position's device scan, and the
// devices' visibility certificates that answer most of its line-of-sight
// queries. Safe for concurrent use.
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

	// dgrid narrows each position's device scan to the cells overlapping
	// its d_max disk (nil without devices).
	dgrid *visindex.DeviceGrid
	// vpg tiles the positions around the devices, each tile memoizing its
	// device prefilter; certs[j] is device j's visibility certificate
	// (both nil under brute-force visibility or without obstacles).
	vpg    *visindex.ViewpointGrid
	certs  []*visindex.DeviceCertificate
	arPool sync.Pool // *covArena
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
	if len(sc.Devices) > 0 {
		c.dgrid = visindex.NewDeviceGrid(pts, ct.DMax/2)
	}
	if len(sc.Obstacles) > 0 {
		if ix, ok := sc.AttachedVisibilityIndex().(*visindex.Index); ok {
			c.vpg = ix.NewViewpointGrid(ct.DMax+prunePad, pts)
			c.certs = ix.Certificates(pts)
		}
	}
	return c
}

// getArena hands out a pooled Covers arena for one sweep chunk; reused is
// true when the arena (and its partially filled chunk) came back from an
// earlier chunk instead of being freshly allocated.
func (c *eligibleCache) getArena() (ar *covArena, reused bool) {
	if v := c.arPool.Get(); v != nil {
		return v.(*covArena), true
	}
	return &covArena{}, false
}

func (c *eligibleCache) putArena(ar *covArena) { c.arPool.Put(ar) }

// Tile-prefilter tolerances. The prefilter works on the tile envelope (all
// positions within slack of the tile center), so its gates must out-pad the
// exact per-position predicates in tryDevice:
//
//   - tileDistPad widens the [DMin, DMax] annulus beyond the exact ±geom.Eps
//     range gates, and is also the minimum center distance (beyond the
//     slack) at which the sector gate may engage — guaranteeing every
//     in-tile position is at least tileDistPad from the device, which
//     bounds the exact sector gate's angular tolerance below.
//   - tileAngPad bounds the widening of the exact sector acceptance cone:
//     tryDevice accepts cos ψ ≥ cos(α/2) − ε′ with ε′ = geom.Eps·max(1,d)/d
//     ≤ 1e-9/tileDistPad = 1e-6 for d ≥ tileDistPad, and
//     arccos(cos θ − ε′) ≤ θ + √(2ε′) ≤ θ + 1.5e-3 < θ + tileAngPad.
const (
	tileDistPad = 1e-3
	tileAngPad  = 2e-3
)

// tileDevices lists, in ascending index order, every device that could pass
// tryDevice's exact eligibility gates from some position within slack of
// center — the conservative per-tile device prefilter memoized by
// Viewpoint.AuxDevices. A device is skipped only when the whole tile
// envelope provably fails the charging-range annulus or lies outside the
// device's (padded) receiving sector.
func (c *eligibleCache) tileDevices(center geom.Vec, slack float64) []int32 {
	sc := c.sc
	ct := c.ct
	out := make([]int32, 0, len(sc.Devices))
	for j := range sc.Devices {
		dev := &sc.Devices[j]
		delta := dev.Pos.Sub(center)
		dc := delta.Len()
		if dc-slack > ct.DMax+geom.Eps+tileDistPad || dc+slack < ct.DMin-geom.Eps-tileDistPad {
			continue
		}
		dt := &sc.DeviceTypes[dev.Type]
		if dt.Alpha < 2*math.Pi-geom.Eps && dc > slack+tileDistPad {
			// Directions device→position across the tile deviate from the
			// device→center direction by at most asin(slack/dc).
			spread := math.Asin(math.Min(1, slack/dc))
			if geom.AbsAngleDiff(delta.Neg().Angle(), dev.Orient) > dt.Alpha/2+spread+tileAngPad {
				continue
			}
		}
		out = append(out, int32(j))
	}
	return out
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
// back in once its contents have been copied into candidate Covers.
func (c *eligibleCache) at(p geom.Vec, buf []eligible) []eligible {
	certified, exact := 0, 0
	ct := c.ct
	dmin2, dmax2 := c.rangeGates()
	out := buf[:0]
	switch {
	case c.vpg != nil:
		// Tile-pruned scan: the per-tile device prefilter is computed once
		// per viewpoint tile and shared by every position swept inside it,
		// in ascending index order like the full scan. Outside the tiling
		// no device is within d_max + prunePad, so none is in range.
		vp := c.vpg.At(p)
		if vp == nil {
			return out
		}
		aux, ok := vp.AuxDevices()
		if !ok {
			center, slack := vp.Envelope()
			aux = vp.SetAuxDevices(c.tileDevices(center, slack))
		}
		for _, j := range aux {
			out, certified, exact = c.tryDevice(out, int(j), p, dmin2, dmax2, certified, exact)
		}
	case c.dgrid != nil:
		// Grid-pruned scan: only devices whose cell overlaps the d_max disk
		// around p, visited in ascending index order like the full scan.
		var maskBuf [4]uint64
		mask := maskBuf[:]
		if w := c.dgrid.Words(); w > len(maskBuf) {
			mask = make([]uint64, w)
		} else {
			mask = maskBuf[:w]
		}
		c.dgrid.CollectDisk(p, ct.DMax+prunePad, mask)
		for w, m := range mask {
			for ; m != 0; m &= m - 1 {
				j := w*64 + bits.TrailingZeros64(m)
				out, certified, exact = c.tryDevice(out, j, p, dmin2, dmax2, certified, exact)
			}
		}
	}
	c.tracer.Add(hipotrace.CtrLOSQueries, int64(certified+exact))
	c.tracer.Add(hipotrace.CtrLOSCertified, int64(certified))
	c.tracer.Add(hipotrace.CtrLOSExact, int64(exact))
	return out
}

// tryDevice applies the exact eligibility predicates to device j and
// appends it to out when chargeable from p. It is the single predicate
// body behind both the tile- and grid-pruned scans, so the two paths can
// only differ in which provably-out-of-range devices they skip. Line of
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

// sweepScratch carries the per-chunk reusable state of the sweep: the
// eligibility slice, the orientation index scratch and the Covers arena.
// One scratch serves every position of a sweep chunk, so per-position
// allocations vanish entirely.
type sweepScratch struct {
	el  []eligible
	idx []int
	ar  *covArena
}

// sweepPointAppend is Algorithm 1: it rotates a charger of type q at point
// p through 360° and appends one candidate per practical dominating
// coverage set to buf, choosing orientations at the critical positions
// where a device is about to fall out of the charging sector. Output
// (order included) is bit-for-bit identical to the seed sweep preserved in
// internal/pdcs/pdcsref; only the bookkeeping differs — a per-chunk
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
		buf = append(buf, makeCandidate(p, 0, q, el, scr.idx, scr.ar))
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
		buf = append(buf, makeCandidate(p, phi, q, el, idx, scr.ar))
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
// positions from internal/discretize, then ExtractAt over them. Results are
// deterministic regardless of worker count.
//
//hipo:hotpath
func Extract(sc *model.Scenario, q int, cfg Config) []Candidate {
	sc = cfg.ensureVisibility(sc)
	endDisc := cfg.Tracer.StartStage(hipotrace.StageDiscretize, typeLabel(q))
	positions := discretize.CandidatePositions(sc, q, discretize.Config{
		Eps1:                 cfg.Eps1,
		Workers:              cfg.Workers,
		BruteForceVisibility: cfg.BruteForceVisibility,
		Tracer:               cfg.Tracer,
	})
	endDisc()
	return ExtractAt(sc, q, positions, cfg, nil, nil)
}

// sweepChunk is the number of positions one sweep task covers: one output
// buffer, index scratch, and Covers arena serve them all.
const sweepChunk = 256

// ExtractAt is the single Algorithm 1 driver. It sweeps every position of
// type q in contiguous chunks on cfg.Workers goroutines (0 = GOMAXPROCS)
// and feeds the outputs, in position order, to the streaming reducer and
// the exact global dominance filter (Algorithm 2 step 9). With
// cfg.SkipDominanceFilter it returns the concatenated per-position outputs
// instead — each already free of candidates dominated at its own position.
// A non-nil memo (one per charger type) serves, straight from its arena,
// the positions it holds and stores the fresh ones; it marks both for its
// next End. held[i] is positions[i]'s entry as memo.Find returned it since
// the last End (-1 = not held), so no position is probed twice; held must
// be as long as positions with a memo and nil without one. With a nil memo
// nothing is retained past the call. Returned candidates own their Covers.
//
//hipo:hotpath
func ExtractAt(sc *model.Scenario, q int, positions []geom.Vec, cfg Config, memo *Memo, held []int32) []Candidate {
	sc = cfg.ensureVisibility(sc)
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

	// With a memo, only the positions it does not hold are swept, and ends
	// records where each swept position's output stops within its chunk so
	// it can be stored.
	fresh := positions
	var ends []int32
	if memo != nil {
		fresh = nil
		for i, p := range positions {
			if held[i] < 0 {
				fresh = append(fresh, p)
			}
		}
		ends = make([]int32, len(fresh))
	}
	nChunks := (len(fresh) + sweepChunk - 1) / sweepChunk
	chunks := schedule.RunPool(nChunks, workers, func(ci int) []Candidate {
		lo := ci * sweepChunk
		hi := min(lo+sweepChunk, len(fresh))
		ar, reused := cache.getArena()
		if reused {
			tr.Add(hipotrace.CtrPoolReuse, 1)
		}
		scr := sweepScratch{ar: ar}
		var buf []Candidate
		for i := lo; i < hi; i++ {
			buf = sweepPointAppend(sc, q, fresh[i], cache, &scr, buf)
			if ends != nil {
				ends[i] = int32(len(buf))
			}
		}
		cache.putArena(ar)
		return buf
	})

	// The candidate stream, in position order, goes through the streaming
	// reducer — or, with the dominance filter skipped, is concatenated.
	var out []Candidate
	var red *streamReducer
	if !cfg.SkipDominanceFilter {
		red = newStreamReducer(len(sc.Devices))
	}
	feed := func(cs []Candidate) {
		if red == nil {
			out = append(out, cs...)
			return
		}
		for i := range cs {
			red.add(cs[i])
		}
	}
	if memo == nil {
		for _, cs := range chunks {
			feed(cs)
		}
	} else {
		k := 0               // index of the next fresh position
		var lent []Candidate // a held position's candidates, rebuilt from the arena
		for i, p := range positions {
			if e := held[i]; e >= 0 {
				memo.serve(e)
				lent = memo.appendCandidates(lent[:0], e, p, q)
				feed(lent)
				continue
			}
			start := int32(0)
			if k%sweepChunk > 0 {
				start = ends[k-1]
			}
			own := chunks[k/sweepChunk][start:ends[k]]
			memo.store(p, own)
			feed(own)
			k++
		}
	}
	if red == nil {
		tr.Add(hipotrace.CtrCandidatesRaw, int64(len(out)))
	} else {
		tr.Add(hipotrace.CtrCandidatesRaw, int64(red.raw))
		out = FilterDominated(red.final(), len(sc.Devices))
	}
	tr.Add(hipotrace.CtrCandidatesKept, int64(len(out)))
	detachCovers(out)
	return out
}

// typeLabel renders the charger-type span label used in trace breakdowns
// and pprof hipo_detail labels.
func typeLabel(q int) string { return fmt.Sprintf("type-%d", q) }

// Config tunes PDCS extraction.
type Config struct {
	// Eps1 is the approximation parameter ε₁ (Lemma 4.1).
	Eps1 float64
	// Workers bounds the goroutines sweeping candidate positions
	// (0 = GOMAXPROCS) within one call; an incremental session runs its
	// charger types' calls concurrently, each with this bound.
	Workers int
	// SkipDominanceFilter keeps dominated candidates (ablation).
	SkipDominanceFilter bool
	// BruteForceVisibility answers occlusion queries by exhaustive obstacle
	// scan instead of the spatial index (differential reference arm).
	BruteForceVisibility bool
	// Tracer, when non-nil, receives stage spans (discretize, pdcs) and the
	// pipeline counters of internal/hipotrace. Sweep hot paths count into
	// locals and flush per call; a nil Tracer costs nothing.
	Tracer *hipotrace.Tracer
}

// ensureVisibility attaches the spatial visibility index for this
// extraction unless brute force was requested or one is already present.
func (cfg Config) ensureVisibility(sc *model.Scenario) *model.Scenario {
	if cfg.BruteForceVisibility {
		return sc
	}
	return visindex.Ensure(sc)
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
