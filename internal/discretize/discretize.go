// Package discretize implements the area-discretization machinery of
// Section 4.1: the distance-level rings of the piecewise-constant power
// approximation, and the generation of candidate charger positions at the
// critical points of the multi-feasible geometric areas — ring/ring,
// ring/sector-edge, ring/obstacle-edge and ring/hole-ray intersections, the
// device-pair line and inscribed-arc constructions of Algorithm 2, and
// event-angle boundary samples.
//
// Rather than maintaining the planar arrangement of feasible geometric areas
// explicitly (which the paper itself abandons for its distributed algorithm,
// Section 5), we enumerate the arrangement's vertices and arc representatives
// directly: every practical dominating coverage set has a witness strategy at
// one of these points (Theorem 4.1's three shrinking operations terminate at
// exactly these events).
//
// The generation is split into per-device tasks (TaskPositions: device i's
// own events plus its pairs with larger-indexed neighbors), the independent
// tasks of the distributed Algorithm 4 of Section 5; CandidatePositions is
// their deduplicated union.
package discretize

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"

	"hipo/internal/geom"
	"hipo/internal/hipotrace"
	"hipo/internal/model"
	"hipo/internal/power"
	"hipo/internal/schedule"
	"hipo/internal/visibility"
	"hipo/internal/visindex"
)

// Config tunes candidate generation.
type Config struct {
	// Eps1 is the piecewise-approximation parameter ε₁ of Lemma 4.1.
	Eps1 float64
	// Workers bounds the goroutines generating per-device positions
	// (0 = GOMAXPROCS).
	Workers int
	// Tracer, when non-nil, receives pipeline counters (feasibility
	// queries). Generation hot paths count into locals and flush once per
	// call, so a nil Tracer costs nothing.
	Tracer *hipotrace.Tracer
}

// DefaultEps1 corresponds to the paper's default ε = 0.15 via
// ε₁ = 2ε/(1−2ε).
func DefaultEps1() float64 { return power.Eps1ForEps(0.15) }

// Radii returns the candidate ring radii around device j for charger type
// q: the charger's d_min plus every distance level of Lemma 4.1 for the
// (q, type(j)) power constants. Radii are strictly increasing.
func Radii(sc *model.Scenario, q, j int, eps1 float64) []float64 {
	ct := sc.ChargerTypes[q]
	dt := sc.Devices[j].Type
	pp := sc.Power[q][dt]
	lv := power.NewLevels(pp.A, pp.B, ct.DMin, ct.DMax, eps1)
	out := make([]float64, 0, lv.NumBands()+1)
	out = append(out, ct.DMin)
	for _, b := range lv.Break {
		if b > out[len(out)-1]+geom.Eps {
			out = append(out, b)
		}
	}
	return out
}

// ReceivingRing returns device j's power receiving area for charger type q:
// the sector ring with the device's receiving angle and the charger type's
// distance range (Figure 1).
func ReceivingRing(sc *model.Scenario, q, j int) geom.SectorRing {
	ct := sc.ChargerTypes[q]
	dev := sc.Devices[j]
	return geom.SectorRing{
		Apex:   dev.Pos,
		Orient: dev.Orient,
		Alpha:  sc.DeviceTypes[dev.Type].Alpha,
		RMin:   ct.DMin,
		RMax:   ct.DMax,
	}
}

// Generator precomputes per-device geometry for one charger type and
// produces candidate positions. It is safe for concurrent reads after
// construction.
type Generator struct {
	sc  *model.Scenario
	q   int
	cfg Config

	circles [][]geom.Circle  // level rings per device
	edges   [][]geom.Segment // receiving-sector straight edges per device
	holes   [][]geom.Segment // hole boundary rays per device
	rings   []geom.SectorRing
	obs     []geom.Segment // all obstacle edges
	// obsEdges[h] is the slice of obs holding obstacle h's edges, so the
	// near-disk prefilter can assemble pruned edge lists that stay
	// subsequences of obs (preserving enumeration order).
	obsEdges [][]geom.Segment
	// neighbors[i] lists, ascending, the devices within 2·d_max of device i
	// (the O_i^k of Algorithm 4), excluding i itself.
	neighbors [][]int
	// ix (the scenario's visibility index; nil when another index, such as
	// model.BruteForce, is attached) and dgrid (a device-position grid; nil
	// without devices) power the spatial prefilters. Each prefilter is a
	// conservative superset re-checked by the exact predicate, so output is
	// identical to an exhaustive scan.
	ix    *visindex.Index
	dgrid *visindex.DeviceGrid
}

// prunePad widens every pruning radius. Like visindex's grid padding it
// strictly dominates the 1e-9 tolerances of the exact predicates
// (geom.CircleSegmentIntersections tangency slack, the ±geom.Eps range
// gates), so the prefilters can never drop an interacting obstacle or
// device.
const prunePad = 1e-6

// NewGenerator builds the per-device geometry tables for charger type q.
func NewGenerator(sc *model.Scenario, q int, cfg Config) *Generator {
	no := len(sc.Devices)
	g := &Generator{
		sc: sc, q: q, cfg: cfg,
		circles: make([][]geom.Circle, no),
		edges:   make([][]geom.Segment, no),
		holes:   make([][]geom.Segment, no),
		rings:   make([]geom.SectorRing, no),
	}
	ct := sc.ChargerTypes[q]
	for j := 0; j < no; j++ {
		g.rings[j] = ReceivingRing(sc, q, j)
		for _, r := range Radii(sc, q, j, cfg.Eps1) {
			g.circles[j] = append(g.circles[j], geom.Circle{C: sc.Devices[j].Pos, R: r})
		}
		g.edges[j] = g.rings[j].BoundaryRays()
		if len(sc.Obstacles) > 0 {
			g.holes[j] = visibility.HoleRays(sc, sc.Devices[j].Pos, ct.DMax)
		}
	}
	perObs := make([][]geom.Segment, len(sc.Obstacles))
	nEdges := 0
	for h, o := range sc.Obstacles {
		perObs[h] = o.Shape.Edges()
		nEdges += len(perObs[h])
	}
	g.obs = make([]geom.Segment, 0, nEdges)
	g.obsEdges = make([][]geom.Segment, len(sc.Obstacles))
	for h := range perObs {
		start := len(g.obs)
		g.obs = append(g.obs, perObs[h]...)
		g.obsEdges[h] = g.obs[start:len(g.obs):len(g.obs)]
	}
	g.ix, _ = sc.AttachedVisibilityIndex().(*visindex.Index)
	g.buildNeighbors()
	return g
}

// buildNeighbors precomputes every device's neighbor set. A device grid
// narrows each scan to the cells overlapping the 2·d_max disk and reports
// the pairs it skipped to the tracer; the exact distance predicate decides
// membership, so the sets equal an exhaustive scan's.
func (g *Generator) buildNeighbors() {
	sc, ct := g.sc, g.sc.ChargerTypes[g.q]
	no := len(sc.Devices)
	g.neighbors = make([][]int, no)
	if no == 0 {
		return
	}
	r := 2 * ct.DMax
	pts := make([]geom.Vec, no)
	for i := range pts {
		pts[i] = sc.Devices[i].Pos
	}
	g.dgrid = visindex.NewDeviceGrid(pts, ct.DMax/2)
	mask := make([]uint64, g.dgrid.Words())
	pruned := int64(0)
	for i := 0; i < no; i++ {
		for w := range mask {
			mask[w] = 0
		}
		g.dgrid.CollectDisk(pts[i], r+prunePad, mask)
		scanned := 0
		visindex.EachSet(mask, func(j int) {
			if j == i {
				return
			}
			scanned++
			if pts[i].Dist(pts[j]) <= r {
				g.neighbors[i] = append(g.neighbors[i], j)
			}
		})
		pruned += int64(no - 1 - scanned)
	}
	g.cfg.Tracer.Add(hipotrace.CtrPairsPruned, pruned)
}

// appendDevicePositions appends the per-device candidate positions of
// device j: its ring cuts, then its event-angle samples. Positions are
// filtered for placement feasibility but not deduplicated.
func (g *Generator) appendDevicePositions(out []geom.Vec, j int) []geom.Vec {
	feas := 0
	out = g.appendRingCuts(out, j, &feas)
	out = g.appendEventSamples(out, j, &feas)
	g.cfg.Tracer.Add(hipotrace.CtrFeasibilityQueries, int64(feas))
	return out
}

// appendRingCuts appends the feasible intersections of device j's level
// rings with its own sector edges, its hole rays and the obstacle edges:
// a function of device j and the obstacles alone. feas counts the
// feasibility queries.
func (g *Generator) appendRingCuts(out []geom.Vec, j int, feas *int) []geom.Vec {
	segs, segsPooled := g.deviceSegs(j)
	for _, c := range g.circles[j] {
		for _, s := range segs {
			for _, p := range geom.CircleSegmentIntersections(c, s) {
				*feas++
				if g.sc.FeasiblePosition(p) {
					out = append(out, p)
				}
			}
		}
	}
	if segsPooled {
		putSegBuf(segs)
	}
	return out
}

// appendEventSamples appends the feasible event-angle boundary samples of
// device j (Algorithm 2 step 8). Besides device j and the obstacles they
// read the directions to j's 2·d_max neighbors. feas counts the
// feasibility queries.
func (g *Generator) appendEventSamples(out []geom.Vec, j int, feas *int) []geom.Vec {
	for _, p := range g.eventAngleSamples(j) {
		*feas++
		if g.sc.FeasiblePosition(p) {
			out = append(out, p)
		}
	}
	return out
}

// deviceSegs assembles the segment workload device j's rings are cut
// against. With the visibility index present the obstacle portion shrinks
// to the obstacles whose padded box reaches the outermost ring; the pruned
// list is a subsequence of the full one, and every dropped obstacle is
// provably beyond every ring's intersection tolerance, so the emitted
// positions are unchanged. The returned slice comes from a pool when
// pruning assembled it (pooled=true; caller must return it via putSegBuf).
func (g *Generator) deviceSegs(j int) (segs []geom.Segment, pooled bool) {
	if g.ix == nil || len(g.obs) == 0 {
		segs = make([]geom.Segment, 0, len(g.edges[j])+len(g.holes[j])+len(g.obs))
		segs = append(segs, g.edges[j]...)
		segs = append(segs, g.holes[j]...)
		segs = append(segs, g.obs...)
		return segs, false
	}
	maxR := g.circles[j][len(g.circles[j])-1].R
	near := getObsBuf()
	near = g.ix.AppendObstaclesNearDisk(near, g.sc.Devices[j].Pos, maxR+prunePad)
	segs = getSegBuf()
	segs = append(segs, g.edges[j]...)
	segs = append(segs, g.holes[j]...)
	for _, h := range near {
		segs = append(segs, g.obsEdges[h]...)
	}
	putObsBuf(near)
	return segs, true
}

// appendPairPositions appends the candidate positions arising from the
// device pair (i, j): ring/ring intersections, cross ring/sector-edge and
// ring/hole-ray intersections, and Algorithm 2's line and inscribed-arc
// constructions. It assumes the pair is within 2·d_max
// (callers walk precomputed neighbor sets). Not deduplicated.
func (g *Generator) appendPairPositions(out []geom.Vec, i, j int) []geom.Vec {
	ct := g.sc.ChargerTypes[g.q]
	pi, pj := g.sc.Devices[i].Pos, g.sc.Devices[j].Pos
	feas := 0
	defer func() { g.cfg.Tracer.Add(hipotrace.CtrFeasibilityQueries, int64(feas)) }()
	add := func(p geom.Vec) {
		feas++
		if g.sc.FeasiblePosition(p) {
			out = append(out, p)
		}
	}
	// Rings of i vs rings of j.
	for _, ci := range g.circles[i] {
		for _, cj := range g.circles[j] {
			for _, p := range geom.CircleCircleIntersections(ci, cj) {
				add(p)
			}
		}
	}
	// Rings of one vs sector edges and hole rays of the other.
	crossSegs := func(cs []geom.Circle, segs []geom.Segment) {
		for _, c := range cs {
			for _, s := range segs {
				for _, p := range geom.CircleSegmentIntersections(c, s) {
					add(p)
				}
			}
		}
	}
	crossSegs(g.circles[i], g.edges[j])
	crossSegs(g.circles[i], g.holes[j])
	crossSegs(g.circles[j], g.edges[i])
	crossSegs(g.circles[j], g.holes[i])

	both := make([]geom.Circle, 0, len(g.circles[i])+len(g.circles[j]))
	both = append(both, g.circles[i]...)
	both = append(both, g.circles[j]...)
	// Algorithm 2 steps 2–3: the straight line through the pair, cut
	// against both devices' rings.
	for _, c := range both {
		for _, p := range geom.CircleLineIntersections(c, pi, pj) {
			add(p)
		}
	}
	// Algorithm 2 steps 5–6: inscribed-arc circles with circumferential
	// angle α_s, cut against both devices' rings and sector edges.
	for _, arc := range geom.InscribedArcCircles(pi, pj, ct.Alpha) {
		for _, c := range both {
			for _, p := range geom.CircleCircleIntersections(arc, c) {
				add(p)
			}
		}
		for _, s := range g.edges[i] {
			for _, p := range geom.CircleSegmentIntersections(arc, s) {
				add(p)
			}
		}
		for _, s := range g.edges[j] {
			for _, p := range geom.CircleSegmentIntersections(arc, s) {
				add(p)
			}
		}
	}
	return out
}

// TaskPositions emits the complete candidate-position workload of
// distributed task i for this charger type (Algorithm 4): device i's own
// events plus the pair constructions with every neighbor of larger index
// (smaller indices are handled by their own tasks, avoiding duplicate
// work). Not deduplicated.
func (g *Generator) TaskPositions(i int) []geom.Vec {
	return g.appendTaskPositions(nil, i)
}

func (g *Generator) appendTaskPositions(out []geom.Vec, i int) []geom.Vec {
	out = g.appendDevicePositions(out, i)
	for _, j := range g.neighbors[i] {
		if j > i {
			out = g.appendPairPositions(out, i, j)
		}
	}
	return out
}

// TaskCost estimates the relative cost of distributed task i in units of
// geometric intersection tests: device i's own ring cutting plus every
// larger-indexed neighbor pair's constructions. It is the single cost
// model shared by the parallel position generator and Algorithm 5's LPT
// scheduling/makespan simulation, deterministic for a given scenario.
func (g *Generator) TaskCost(i int) float64 {
	ci := float64(len(g.circles[i]))
	ownSegs := len(g.edges[i]) + len(g.holes[i]) + len(g.obs)
	cost := ci * float64(ownSegs)
	for _, j := range g.neighbors[i] {
		if j <= i {
			continue
		}
		cj := float64(len(g.circles[j]))
		cost += ci*cj +
			ci*float64(len(g.edges[j])+len(g.holes[j])) +
			cj*float64(len(g.edges[i])+len(g.holes[i]))
		// Line plus two inscribed-arc circles against both ring sets and
		// both sector-edge pairs.
		cost += 3*(ci+cj) + 2*float64(len(g.edges[i])+len(g.edges[j]))
	}
	return cost
}

// CandidatePositions returns the candidate charger positions for charger
// type q: the deduplicated union of every task's positions, restricted to
// the deployment region, outside obstacle interiors, and within charging
// range of at least one device (Generator.Positions on a fresh generator).
//
//hipo:hotpath
func CandidatePositions(sc *model.Scenario, q int, cfg Config) []geom.Vec {
	g := NewGenerator(visindex.Ensure(sc), q, cfg)
	return g.FilterUseful(g.Positions(nil))
}

// workers resolves cfg.Workers (0 = GOMAXPROCS).
func (g *Generator) workers() int {
	if g.cfg.Workers > 0 {
		return g.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Positions assembles the deduplicated candidate positions from the
// per-device tasks: workloads run on cfg.Workers goroutines (0 =
// GOMAXPROCS), handed out in LPT order under the shared TaskCost model so
// the longest tasks start first, then are deduplicated in task order
// (first occurrence wins). FilterUseful is the last step of
// CandidatePositions. Results are deterministic regardless of worker count
// or hand-out order.
//
// cache, when non-nil, carries the task workloads across calls
// (a pdcs.Store): only the parts it does not hold are generated
// and written back, and every task is assembled in the same order, so the
// output is the same. With a nil cache the workloads live in pooled
// buffers for the duration of the call.
func (g *Generator) Positions(cache *TaskCache) []geom.Vec {
	if cache != nil {
		return g.cachedPositions(cache)
	}
	workers := g.workers()
	todo := make([]schedule.Task, len(g.sc.Devices))
	for i := range todo {
		todo[i] = schedule.Task{ID: i, Duration: g.TaskCost(i)}
	}
	var reuse atomic.Int64
	all := schedule.RunPoolOrdered(len(todo), workers, schedule.LPTOrder(todo), func(k int) []geom.Vec {
		buf, reused := getPosBuf()
		if reused {
			reuse.Add(1)
		}
		return g.appendTaskPositions(buf, todo[k].ID)
	})
	g.cfg.Tracer.Add(hipotrace.CtrPoolReuse, reuse.Load())
	raw := 0
	for _, pts := range all {
		raw += len(pts)
	}
	g.cfg.Tracer.Add(hipotrace.CtrPositionsRaw, int64(raw))
	dd := newDeduper(raw)
	for _, pts := range all {
		dd.add(pts)
		putPosBuf(pts)
	}
	return dd.points
}

// filterChunk is the fewest positions FilterUseful hands to one worker;
// below it a goroutine costs more than the range tests it would run.
const filterChunk = 1024

// FilterUseful keeps, in place, the positions within charging range of at
// least one device. Generated positions lie on device rings of radius
// d_min … d_max only up to rounding: CircleSegmentIntersections clamps a
// parameter up to 1e-9 past a segment end onto the end point, which can
// sit beyond d_max + geom.Eps (TestFilterUsefulDropsClampedRingPoint), so
// the test is not redundant. It only distance-tests the devices whose grid
// cells overlap each position's d_max disk; the grid superset is
// re-checked by the exact range predicate, so output matches an exhaustive
// device scan bit for bit. The predicate is pure per point, so contiguous
// chunks are filtered on cfg.Workers goroutines and then compacted in
// order; the result does not depend on the worker count.
func (g *Generator) FilterUseful(pts []geom.Vec) []geom.Vec {
	if g.dgrid == nil {
		return pts[:0] // no devices: nothing is in range
	}
	workers := g.workers()
	chunks := min(workers, (len(pts)+filterChunk-1)/filterChunk)
	if chunks <= 1 {
		return pts[:g.keepUseful(pts)]
	}
	size := (len(pts) + chunks - 1) / chunks
	span := func(c int) []geom.Vec {
		return pts[min(c*size, len(pts)):min((c+1)*size, len(pts))]
	}
	kept := schedule.RunPool(chunks, workers, func(c int) int {
		return g.keepUseful(span(c))
	})
	n := 0
	for c, k := range kept {
		n += copy(pts[n:], span(c)[:k])
	}
	return pts[:n]
}

// keepUseful moves the useful positions of pts to its front, in order, and
// returns their count. Positions arrive grouped by the task that generated
// them, so the device that made the previous position useful is tested
// first, with the same exact range predicate; the grid is scanned only
// when it misses. Usefulness is existential, so the witness changes which
// device proves it, never the verdict.
func (g *Generator) keepUseful(pts []geom.Vec) int {
	sc, ct := g.sc, g.sc.ChargerTypes[g.q]
	inRange := func(p geom.Vec, j int) bool {
		d := p.Dist(sc.Devices[j].Pos)
		return d >= ct.DMin-geom.Eps && d <= ct.DMax+geom.Eps
	}
	mask := make([]uint64, g.dgrid.Words())
	n := 0
	witness := -1
	for _, p := range pts {
		useful := witness >= 0 && inRange(p, witness)
		if !useful {
			for w := range mask {
				mask[w] = 0
			}
			g.dgrid.CollectDisk(p, ct.DMax+prunePad, mask)
			for w := 0; w < len(mask) && !useful; w++ {
				for m := mask[w]; m != 0 && !useful; m &= m - 1 {
					j := w*64 + bits.TrailingZeros64(m)
					if useful = inRange(p, j); useful {
						witness = j
					}
				}
			}
		}
		if useful {
			pts[n] = p
			n++
		}
	}
	return n
}

// Dedup removes near-duplicate points (1e-6 tolerance), preserving first
// occurrences.
func Dedup(pts []geom.Vec) []geom.Vec {
	dd := newDeduper(len(pts))
	dd.add(pts)
	return dd.points
}

// eventAngleSamples returns representative points on each level ring of
// device j: one per maximal arc between consecutive event angles (sector
// boundaries, hole-ray directions, obstacle shadow boundaries, and
// directions toward nearby devices). This realizes Algorithm 2 step 8 — a
// boundary point of every feasible geometric arc — without computing the
// arrangement explicitly.
func (g *Generator) eventAngleSamples(j int) []geom.Vec {
	sc := g.sc
	dev := sc.Devices[j]
	ring := g.rings[j]
	angles := []float64{
		geom.NormAngle(dev.Orient - ring.Alpha/2),
		geom.NormAngle(dev.Orient + ring.Alpha/2),
	}
	for _, h := range g.holes[j] {
		angles = append(angles, h.A.Sub(dev.Pos).Angle())
	}
	angles = append(angles, visibility.EventAngles(sc, dev.Pos)...)
	// Directions toward nearby devices: exactly the precomputed 2·d_max
	// neighbor set, in the same ascending device order the full scan used.
	for _, i := range g.neighbors[j] {
		angles = append(angles, sc.Devices[i].Pos.Sub(dev.Pos).Angle())
	}
	sort.Float64s(angles)

	var out []geom.Vec
	emit := func(theta float64) {
		if !ring.ContainsDirection(theta) {
			return
		}
		for _, c := range g.circles[j] {
			out = append(out, c.C.Add(geom.FromAngle(theta).Scale(c.R)))
		}
	}
	for i, a := range angles {
		emit(a)
		next := angles[(i+1)%len(angles)]
		if i == len(angles)-1 {
			next += 2 * math.Pi
		}
		if next-a > 1e-9 {
			emit(geom.NormAngle((a + next) / 2))
		}
	}
	if len(angles) == 0 {
		emit(dev.Orient)
	}
	return out
}

// dedupTol is the near-duplicate tolerance of Dedup and Positions.
const dedupTol = 1e-6

// The deduper buckets kept points into square cells of side dedupCell and
// looks for a point's near-duplicates in the cells overlapping
// [p ± dedupReach] on both axes. A kept point q with Dist(p, q) ≤ dedupTol
// has |q.X − p.X| ≤ dedupTol·(1 + 2⁻⁵²) (Hypot is never below its larger
// leg, and the subtraction errs by at most half an ulp), so
// p.X − dedupReach < q.X < p.X + dedupReach; rounding and floor are
// monotone, so q's cell lies in the probed range. As 2·dedupReach is well
// under dedupCell, that range spans at most two cells per axis: at most 4
// probes, about (1 + 3/16)² ≈ 1.4 on average.
const (
	dedupCell  = 16 * dedupTol
	dedupReach = 1.5 * dedupTol
)

// deduper removes near-duplicate points: a point is dropped when an
// earlier kept point lies within dedupTol of it. slots is a fixed-size
// open-addressing index over the occupied cells: slot s holds 1 + the
// newest kept index of its cell (0 = empty, so a fresh table needs no init
// loop), and each kept point carries its cell key and the link to the
// previous kept point of its cell. The table is sized once from the number
// of points that will be offered, at load factor ≤ ½, so it never grows
// and a probe always reaches an empty slot. The kept set is the geometric
// one — no earlier kept point within dedupTol — whatever the cell side or
// probe order, so output matches the O(n²) definition bit for bit.
type deduper struct {
	points []geom.Vec
	nodes  []dedupNode // nodes[k] belongs to points[k]
	slots  []int32
	mask   uint64
	shift  uint // 64 − log₂(table size): Fibonacci hashing keeps the top bits
}

// dedupNode is a kept point's cell and 1 + the kept index preceding it in
// that cell's chain (0 ends the chain).
type dedupNode struct {
	cx, cy int64
	prev   int32
}

// newDeduper returns a deduper for at most n offered points.
func newDeduper(n int) *deduper {
	size, shift := 1, uint(64)
	for size < 2*n {
		size <<= 1
		shift--
	}
	return &deduper{
		points: make([]geom.Vec, 0, n),
		nodes:  make([]dedupNode, 0, n),
		slots:  make([]int32, size),
		mask:   uint64(size - 1),
		shift:  shift,
	}
}

func dedupCellOf(v float64) int64 { return int64(math.Floor(v / dedupCell)) }

// slot returns the table slot of cell (cx, cy): the slot naming the cell,
// or the empty one an insert would take.
func (d *deduper) slot(cx, cy int64) uint64 {
	h := (uint64(cx)*0x9E3779B97F4A7C15 ^ uint64(cy)) * 0xC2B2AE3D27D4EB4F
	for s := h >> d.shift; ; s = (s + 1) & d.mask {
		k := d.slots[s]
		if k == 0 {
			return s
		}
		if nd := &d.nodes[k-1]; nd.cx == cx && nd.cy == cy {
			return s
		}
	}
}

func (d *deduper) add(pts []geom.Vec) {
	for _, p := range pts {
		d.addOne(p)
	}
}

func (d *deduper) addOne(p geom.Vec) {
	hx, hy := dedupCellOf(p.X), dedupCellOf(p.Y)
	x1, y1 := dedupCellOf(p.X+dedupReach), dedupCellOf(p.Y+dedupReach)
	y0 := dedupCellOf(p.Y - dedupReach)
	var home uint64 // p's own cell's slot, found or to be claimed
	for cx := dedupCellOf(p.X - dedupReach); cx <= x1; cx++ {
		for cy := y0; cy <= y1; cy++ {
			s := d.slot(cx, cy)
			if cx == hx && cy == hy {
				home = s
			}
			for k := d.slots[s]; k > 0; k = d.nodes[k-1].prev {
				q := d.points[k-1]
				// Exact screen: Dist is at least either axis gap.
				if math.Abs(q.X-p.X) > dedupTol || math.Abs(q.Y-p.Y) > dedupTol {
					continue
				}
				if q.Dist(p) <= dedupTol {
					return
				}
			}
		}
	}
	d.points = append(d.points, p)
	d.nodes = append(d.nodes, dedupNode{cx: hx, cy: hy, prev: d.slots[home]})
	d.slots[home] = int32(len(d.points))
}
