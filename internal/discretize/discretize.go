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
	"slices"
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

// tableInline is the fewest devices whose per-device tables NewGenerator
// builds on the worker pool; below it the tables are built inline.
const tableInline = 16

// NewGenerator builds the per-device geometry tables for charger type q.
// Each device's rings, level circles, sector edges, hole rays and neighbor
// set depend on the scenario alone, so they are built on cfg.Workers
// goroutines, one device per task; the tables do not depend on the worker
// count.
func NewGenerator(sc *model.Scenario, q int, cfg Config) *Generator {
	no := len(sc.Devices)
	g := &Generator{
		sc: sc, q: q, cfg: cfg,
		circles:   make([][]geom.Circle, no),
		edges:     make([][]geom.Segment, no),
		holes:     make([][]geom.Segment, no),
		rings:     make([]geom.SectorRing, no),
		neighbors: make([][]int, no),
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
	if no == 0 {
		return g
	}
	pts := make([]geom.Vec, no)
	for i := range pts {
		pts[i] = sc.Devices[i].Pos
	}
	g.dgrid = visindex.NewDeviceGrid(pts, sc.ChargerTypes[q].DMax/2)
	workers := g.workers()
	if no < tableInline {
		workers = 1
	}
	masks := make([][]uint64, min(workers, no))
	pruned := schedule.RunPoolScratch(no, workers, nil, func(w, j int) int64 {
		if masks[w] == nil {
			masks[w] = make([]uint64, g.dgrid.Words())
		}
		return g.buildDevice(j, pts, masks[w])
	})
	total := int64(0)
	for _, n := range pruned {
		total += n
	}
	g.cfg.Tracer.Add(hipotrace.CtrPairsPruned, total)
	return g
}

// buildDevice fills device j's tables and returns the number of device
// pairs its neighbor scan skipped. The device grid narrows the scan to the
// cells overlapping the 2·d_max disk; the exact distance predicate decides
// membership, so the neighbor set equals an exhaustive scan's. mask is the
// calling worker's grid scratch.
func (g *Generator) buildDevice(j int, pts []geom.Vec, mask []uint64) int64 {
	sc, ct := g.sc, g.sc.ChargerTypes[g.q]
	g.rings[j] = ReceivingRing(sc, g.q, j)
	rs := Radii(sc, g.q, j, g.cfg.Eps1)
	g.circles[j] = make([]geom.Circle, len(rs))
	for k, r := range rs {
		g.circles[j][k] = geom.Circle{C: pts[j], R: r}
	}
	g.edges[j] = g.rings[j].BoundaryRays()
	if len(sc.Obstacles) > 0 {
		g.holes[j] = visibility.HoleRays(sc, pts[j], ct.DMax)
	}
	r := 2 * ct.DMax
	clear(mask)
	g.dgrid.CollectDisk(pts[j], r+prunePad, mask)
	scanned := 0
	visindex.EachSet(mask, func(i int) {
		if i == j {
			return
		}
		scanned++
		if pts[j].Dist(pts[i]) <= r {
			g.neighbors[j] = append(g.neighbors[j], i)
		}
	})
	return int64(len(pts) - 1 - scanned)
}

// genScratch is one worker's generation scratch, reused across the tasks
// it runs: the segment list a device's rings are cut against, the nearby
// obstacles that prune it, and a device's event angles.
type genScratch struct {
	segs   []geom.Segment
	near   []int32
	angles []float64
}

// appendRingCuts appends the feasible intersections of device j's level
// rings with its own sector edges, its hole rays and the obstacle edges:
// a function of device j and the obstacles alone. feas counts the
// feasibility queries.
func (g *Generator) appendRingCuts(out []geom.Vec, j int, s *genScratch, feas *int) []geom.Vec {
	segs := g.deviceSegs(j, s)
	for _, c := range g.circles[j] {
		for _, sg := range segs {
			pts, n := geom.CircleSegmentIntersections(c, sg)
			for _, p := range pts[:n] {
				*feas++
				if g.sc.FeasiblePosition(p) {
					out = append(out, p)
				}
			}
		}
	}
	return out
}

// appendEventSamples appends the feasible event-angle boundary samples of
// device j (Algorithm 2 step 8): representative points on each level ring,
// one per maximal arc between consecutive event angles (sector boundaries,
// hole-ray directions, obstacle shadow boundaries, and directions toward
// nearby devices). This realizes a boundary point of every feasible
// geometric arc without computing the arrangement explicitly. Besides
// device j and the obstacles the samples read the directions to j's
// 2·d_max neighbors. Each sample is feasibility-tested as it is made and
// appended to out; feas counts the queries.
func (g *Generator) appendEventSamples(out []geom.Vec, j int, s *genScratch, feas *int) []geom.Vec {
	sc := g.sc
	dev := sc.Devices[j]
	ring := g.rings[j]
	angles := append(s.angles[:0],
		geom.NormAngle(dev.Orient-ring.Alpha/2),
		geom.NormAngle(dev.Orient+ring.Alpha/2),
	)
	for _, h := range g.holes[j] {
		angles = append(angles, h.A.Sub(dev.Pos).Angle())
	}
	angles = append(angles, visibility.EventAngles(sc, dev.Pos)...)
	// Directions toward nearby devices: exactly the precomputed 2·d_max
	// neighbor set, in the same ascending device order the full scan used.
	for _, i := range g.neighbors[j] {
		angles = append(angles, sc.Devices[i].Pos.Sub(dev.Pos).Angle())
	}
	slices.Sort(angles)
	s.angles = angles

	emit := func(theta float64) {
		if !ring.ContainsDirection(theta) {
			return
		}
		for _, c := range g.circles[j] {
			p := c.C.Add(geom.FromAngle(theta).Scale(c.R))
			*feas++
			if sc.FeasiblePosition(p) {
				out = append(out, p)
			}
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

// deviceSegs assembles, in s.segs, the segment workload device j's rings
// are cut against: its sector edges, its hole rays and the obstacle edges.
// With the visibility index present the obstacle portion shrinks to the
// obstacles whose padded box reaches the outermost ring; the pruned list is
// a subsequence of the full one, and every dropped obstacle is provably
// beyond every ring's intersection tolerance, so the emitted positions are
// unchanged.
func (g *Generator) deviceSegs(j int, s *genScratch) []geom.Segment {
	segs := append(s.segs[:0], g.edges[j]...)
	segs = append(segs, g.holes[j]...)
	if g.ix == nil {
		segs = append(segs, g.obs...)
	} else if len(g.obs) > 0 {
		maxR := g.circles[j][len(g.circles[j])-1].R
		s.near = g.ix.AppendObstaclesNearDisk(s.near[:0], g.sc.Devices[j].Pos, maxR+prunePad)
		for _, h := range s.near {
			segs = append(segs, g.obsEdges[h]...)
		}
	}
	s.segs = segs
	return segs
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
	add := func(pts [2]geom.Vec, n int) {
		for _, p := range pts[:n] {
			feas++
			if g.sc.FeasiblePosition(p) {
				out = append(out, p)
			}
		}
	}
	// Rings of i vs rings of j.
	for _, ci := range g.circles[i] {
		for _, cj := range g.circles[j] {
			add(geom.CircleCircleIntersections(ci, cj))
		}
	}
	// Rings of one vs sector edges and hole rays of the other.
	crossSegs := func(cs []geom.Circle, segs []geom.Segment) {
		for _, c := range cs {
			for _, s := range segs {
				add(geom.CircleSegmentIntersections(c, s))
			}
		}
	}
	crossSegs(g.circles[i], g.edges[j])
	crossSegs(g.circles[i], g.holes[j])
	crossSegs(g.circles[j], g.edges[i])
	crossSegs(g.circles[j], g.holes[i])

	// Both devices' rings; the array keeps the usual few on the stack.
	var ringBuf [16]geom.Circle
	both := append(append(ringBuf[:0], g.circles[i]...), g.circles[j]...)
	// Algorithm 2 steps 2–3: the straight line through the pair, cut
	// against both devices' rings.
	for _, c := range both {
		add(geom.CircleLineIntersections(c, pi, pj))
	}
	// Algorithm 2 steps 5–6: inscribed-arc circles with circumferential
	// angle α_s, cut against both devices' rings and sector edges.
	for _, arc := range geom.InscribedArcCircles(pi, pj, ct.Alpha) {
		for _, c := range both {
			add(geom.CircleCircleIntersections(arc, c))
		}
		for _, s := range g.edges[i] {
			add(geom.CircleSegmentIntersections(arc, s))
		}
		for _, s := range g.edges[j] {
			add(geom.CircleSegmentIntersections(arc, s))
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
	return g.appendTaskPositions(nil, i, new(genScratch))
}

func (g *Generator) appendTaskPositions(out []geom.Vec, i int, s *genScratch) []geom.Vec {
	feas := 0
	out = g.appendRingCuts(out, i, s, &feas)
	out = g.appendEventSamples(out, i, s, &feas)
	g.cfg.Tracer.Add(hipotrace.CtrFeasibilityQueries, int64(feas))
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
// the longest tasks start first, each written straight into its own
// buffer. The buffers are then deduplicated in task order (first
// occurrence wins) by one pooled table, with no copy of the buffers.
// FilterUseful is the last step of CandidatePositions. Results are
// deterministic regardless of worker count or hand-out order.
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
	scratch := make([]genScratch, min(workers, len(todo)))
	all := schedule.RunPoolScratch(len(todo), workers, schedule.LPTOrder(todo), func(w, k int) []geom.Vec {
		buf, reused := getPosBuf()
		if reused {
			reuse.Add(1)
		}
		return g.appendTaskPositions(buf, todo[k].ID, &scratch[w])
	})
	g.cfg.Tracer.Add(hipotrace.CtrPoolReuse, reuse.Load())
	out := g.dedup(all)
	for _, pts := range all {
		putPosBuf(pts)
	}
	return out
}

// dedup counts the raw positions of the task workloads parts into the
// tracer and deduplicates their concatenation.
func (g *Generator) dedup(parts [][]geom.Vec) []geom.Vec {
	raw := 0
	for _, pts := range parts {
		raw += len(pts)
	}
	g.cfg.Tracer.Add(hipotrace.CtrPositionsRaw, int64(raw))
	return dedupParts(parts)
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
