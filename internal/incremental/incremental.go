// Package incremental re-solves a HIPO scenario across a stream of small
// mutations — devices added, removed, or moved, obstacles added — without
// repeating the work a cold solve would redo from scratch.
//
// The design leans entirely on two purity contracts of the cold pipeline:
//
//   - Position generation is per-part: discretize task i is device i's
//     ring cuts (a function of device i and the obstacles), its event
//     samples (which also read the directions to its 2·d_max neighbors)
//     and one pair construction per neighbor j > i (a function of devices
//     i and j and the obstacles), and the cold CandidatePositions is
//     exactly "concatenate each task's parts in that order, tasks in
//     device order, dedup, filter".
//
//   - The Algorithm 1 sweep is per-position: a position's candidate list
//     depends only on geometry within d_max of the position, and the cold
//     Extract is exactly "sweep positions in order, reduce, dominance-filter".
//
// A Session therefore keeps, per charger type, a pdcs.Store: a
// discretize.TaskCache of every task's parts and a pdcs.Memo, a
// pointer-free store of per-position sweep outputs. A mutation drops the
// parts that read the mutated device — its own task, its pairs, and the
// event samples of the devices within 2·d_max + pad of its old or new
// position — every part on an obstacle insert, and the sweeps within
// d_max + pad of the change. Solving runs each type's Store.Extract, the
// cold pipeline of pdcs.Extract with the store standing in for the parts
// and sweeps it holds (pdcs owns that protocol and its usefulness
// certificate), and selects through core.SelectWith, so every incremental
// solve is bit-for-bit identical to core.Solve on the mutated scenario,
// and traced like one. The parity tests in this package
// (TestParityAcrossMutations runs up to 200 obstacles × 200 devices) and
// the identity wall in internal/pdcs enforce exactly that, not an
// approximate agreement.
//
// The paper discretizes and extracts each charger type on its own and
// joins the types only in selection, so Solve runs the per-type pipelines
// concurrently on a pool of Options.Workers goroutines (0 = GOMAXPROCS);
// each pipeline keeps its own inner pools of Workers goroutines for task
// generation, the usefulness filter and the sweep, so a solve runs at most
// Workers² goroutines. The pipelines share only the read-only scenario,
// its visibility index and their own per-type stores, and the results are
// joined in type order, so placements, Stats and store contents do not
// depend on Workers. A cold core.Solve keeps its types sequential (see
// core.Options.Workers).
//
// Selection is warm-started: round-0 singleton gains are content-addressed
// by coverage list and replayed into submodular.GreedyLazyWarm. A gain is
// only reused when it is provably bit-exact — device count and type tables
// unchanged since it was computed — because the CELF heap order, and hence
// the placement, would otherwise be allowed to drift under ties.
package incremental

import (
	"fmt"
	"math"
	"runtime"

	"hipo/internal/core"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/schedule"
	"hipo/internal/submodular"
	"hipo/internal/visindex"
)

// invPad widens every invalidation radius beyond the exact dependency
// range. It strictly dominates the 1e-6 pruning pads and 1e-9 geometric
// tolerances of the cold pipeline, so a cached artifact is never kept when
// fresh computation could differ.
const invPad = 1e-3

// Op enumerates the supported scenario mutations.
type Op int

const (
	// OpAddDevice appends Mutation.Device to the scenario.
	OpAddDevice Op = iota
	// OpRemoveDevice removes the device at Mutation.Index; devices after it
	// shift down by one, exactly as a cold scenario built without it.
	OpRemoveDevice
	// OpMoveDevice repositions the device at Mutation.Index to
	// Mutation.Device.Pos / Orient (its type is unchanged).
	OpMoveDevice
	// OpAddObstacle appends Mutation.Obstacle to the scenario.
	OpAddObstacle
)

// Mutation is one scenario edit. Construct with the helpers below.
type Mutation struct {
	Op       Op
	Index    int
	Device   model.Device
	Obstacle model.Obstacle
}

// AddDevice returns a mutation appending device d.
func AddDevice(d model.Device) Mutation { return Mutation{Op: OpAddDevice, Device: d} }

// RemoveDevice returns a mutation removing the device at index i.
func RemoveDevice(i int) Mutation { return Mutation{Op: OpRemoveDevice, Index: i} }

// MoveDevice returns a mutation moving device i to pos with orientation
// orient.
func MoveDevice(i int, pos geom.Vec, orient float64) Mutation {
	return Mutation{Op: OpMoveDevice, Index: i, Device: model.Device{Pos: pos, Orient: orient}}
}

// AddObstacle returns a mutation appending obstacle o.
func AddObstacle(o model.Obstacle) Mutation { return Mutation{Op: OpAddObstacle, Obstacle: o} }

// Stats counts the work an incremental solve did and skipped. Cumulative
// over the session.
type Stats struct {
	Mutations int // mutations applied
	Solves    int // Solve calls that ran the pipeline
	FastPath  int // Solve calls served from the previous solution

	// TasksRecomputed counts discretize tasks with at least one part
	// (ring cuts, event samples, a pair) regenerated; TasksReused counts
	// tasks served whole from the cache. Both count once per charger type
	// and solve.
	TasksRecomputed int
	TasksReused     int
	SweepsComputed  int // positions swept
	SweepsReused    int // positions served from cache
	GainsWarm       int // round-0 gains replayed into the CELF heap
	GainsCold       int // round-0 gains recomputed
}

// Session incrementally re-solves one scenario under a mutation stream.
// Not safe for concurrent use.
type Session struct {
	sc  *model.Scenario
	opt core.Options
	// types[q] holds charger type q's discretize task parts and the sweeps
	// of the last solve's positions that no mutation has reached since.
	types []*pdcs.Store

	// gains content-addresses round-0 singleton gains by coverage list;
	// gainsOK is false whenever reuse would not be bit-exact (device count
	// changed since the table was built, or a custom objective is in play).
	gains   map[string]float64
	gainsOK bool

	prev  *core.Solution
	fresh bool // prev reflects the current scenario
	stats Stats
}

// NewSession validates the scenario and primes a session. The first Solve
// is a cold solve run through the incremental machinery (so its caches fill
// and its output is the cold placement, bit for bit). The scenario is
// cloned; the caller's copy is never touched.
//
// opt.Variant must be the default lazy greedy — the warm-start path is CELF
// only — and opt.Eps must be zero or inside (0, 1/2). opt.Ctx is ignored;
// mutations and solves are short-lived relative to a cold pipeline run.
func NewSession(sc *model.Scenario, opt core.Options) (*Session, error) {
	if _, err := opt.Epsilon(); err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	if opt.Variant != core.GreedyLazy {
		return nil, fmt.Errorf("incremental: only the lazy greedy variant supports warm-started re-solves")
	}
	if opt.SkipDominanceFilter {
		return nil, fmt.Errorf("incremental: the SkipDominanceFilter ablation is not supported; sessions always run the full reduction")
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("incremental: invalid scenario: %w", err)
	}
	opt.Ctx = nil // ignored, as documented: selection must not observe it
	s := &Session{sc: visindex.Ensure(sc.Clone()), opt: opt}
	s.types = make([]*pdcs.Store, len(s.sc.ChargerTypes))
	for q := range s.types {
		s.types[q] = pdcs.NewStore(len(s.sc.Devices))
	}
	return s, nil
}

// Scenario returns a copy of the session's current (mutated) scenario.
func (s *Session) Scenario() *model.Scenario { return s.sc.Clone() }

// Stats returns the cumulative cache counters.
func (s *Session) Stats() Stats {
	st := s.stats
	for _, ts := range s.types {
		ct := ts.Tasks.Stats()
		st.TasksRecomputed += ct.TasksRegenerated
		st.TasksReused += ct.TasksReused
		hits, stores := ts.Sweep.Counts()
		st.SweepsReused += hits
		st.SweepsComputed += stores
	}
	return st
}

// Apply applies the mutations in order. Each mutation is validated against
// the current scenario before it lands; on error the earlier mutations of
// the batch remain applied and the session stays consistent.
func (s *Session) Apply(muts ...Mutation) error {
	for _, m := range muts {
		if err := s.applyOne(m); err != nil {
			return err
		}
		s.stats.Mutations++
		s.fresh = false
	}
	return nil
}

func (s *Session) applyOne(m Mutation) error {
	switch m.Op {
	case OpAddDevice:
		if err := s.checkDevice(m.Device, true); err != nil {
			return err
		}
		s.sc.Devices = append(s.sc.Devices, m.Device)
		for _, ts := range s.types {
			ts.Tasks.AddTask()
		}
		s.invalidateAround(m.Device.Pos, m.Device.Pos)
		s.gains, s.gainsOK = nil, false
		return nil

	case OpRemoveDevice:
		if m.Index < 0 || m.Index >= len(s.sc.Devices) {
			return fmt.Errorf("incremental: remove: device index %d out of range [0, %d)", m.Index, len(s.sc.Devices))
		}
		old := s.sc.Devices[m.Index].Pos
		s.sc.Devices = append(s.sc.Devices[:m.Index], s.sc.Devices[m.Index+1:]...)
		for _, ts := range s.types {
			ts.Tasks.RemoveTask(m.Index)
		}
		// Sweeps surviving the invalidation are > d_max from the removed
		// device, so it never appears in their Covers; later device indices
		// shift down.
		s.invalidateAround(old, old)
		for _, ts := range s.types {
			ts.Sweep.RemoveDevice(m.Index)
		}
		s.gains, s.gainsOK = nil, false
		return nil

	case OpMoveDevice:
		if m.Index < 0 || m.Index >= len(s.sc.Devices) {
			return fmt.Errorf("incremental: move: device index %d out of range [0, %d)", m.Index, len(s.sc.Devices))
		}
		d := s.sc.Devices[m.Index]
		d.Pos, d.Orient = m.Device.Pos, m.Device.Orient
		if err := s.checkDevice(d, false); err != nil {
			return err
		}
		old := s.sc.Devices[m.Index].Pos
		s.sc.Devices[m.Index] = d
		for _, ts := range s.types {
			ts.Tasks.DropDevice(m.Index)
		}
		s.invalidateAround(old, d.Pos)
		return nil

	case OpAddObstacle:
		if err := m.Obstacle.Shape.Validate(); err != nil {
			return fmt.Errorf("incremental: obstacle: %w", err)
		}
		for _, v := range m.Obstacle.Shape.Vertices {
			if !finite(v.X) || !finite(v.Y) {
				return fmt.Errorf("incremental: obstacle: non-finite vertex (%v, %v)", v.X, v.Y)
			}
		}
		for i, d := range s.sc.Devices {
			if m.Obstacle.Shape.ContainsInterior(d.Pos) {
				return fmt.Errorf("incremental: obstacle would swallow device %d", i)
			}
		}
		s.sc.Obstacles = append(s.sc.Obstacles, m.Obstacle)
		// Ensure detects the obstacle-set change by hash and rebuilds the
		// index on a clone.
		s.sc = visindex.Ensure(s.sc)
		// Event angles and hole rays scan the full obstacle set, so every
		// part of every task is stale; sweeps depend on obstacles only
		// within d_max of the position.
		lo, hi := bbox(m.Obstacle.Shape.Vertices)
		for q, ts := range s.types {
			ts.Tasks.DropAll()
			rs := s.sc.ChargerTypes[q].DMax + invPad
			ts.Sweep.DropIf(func(p geom.Vec) bool { return distToBox(p, lo, hi) <= rs })
		}
		return nil

	default:
		return fmt.Errorf("incremental: unknown mutation op %d", m.Op)
	}
}

// checkDevice validates a device against the current scenario (the same
// predicates Scenario.Validate applies).
func (s *Session) checkDevice(d model.Device, checkType bool) error {
	if !finite(d.Pos.X) || !finite(d.Pos.Y) || !finite(d.Orient) {
		return fmt.Errorf("incremental: device has non-finite position or orientation")
	}
	if checkType && (d.Type < 0 || d.Type >= len(s.sc.DeviceTypes)) {
		return fmt.Errorf("incremental: device type %d out of range [0, %d)", d.Type, len(s.sc.DeviceTypes))
	}
	if !s.sc.Region.Contains(d.Pos) {
		return fmt.Errorf("incremental: device position (%v, %v) outside region", d.Pos.X, d.Pos.Y)
	}
	for h := range s.sc.Obstacles {
		if s.sc.Obstacles[h].Shape.ContainsInterior(d.Pos) {
			return fmt.Errorf("incremental: device position (%v, %v) inside obstacle %d", d.Pos.X, d.Pos.Y, h)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// invalidateAround drops, for every charger type, the event samples of
// the devices within 2·d_max + pad of either point (they read the
// direction to every device within 2·d_max) and the cached sweeps within
// d_max + pad (their eligibility, coverage, or feasibility can involve the
// mutated device). The mutated device's own parts and pairs are the
// caller's to drop.
func (s *Session) invalidateAround(a, b geom.Vec) {
	for q, ts := range s.types {
		ct := s.sc.ChargerTypes[q]
		rt := 2*ct.DMax + invPad
		for i, d := range s.sc.Devices {
			if d.Pos.Dist(a) <= rt || d.Pos.Dist(b) <= rt {
				ts.Tasks.DropEventSamples(i)
			}
		}
		rs := ct.DMax + invPad
		ts.Sweep.DropIf(func(p geom.Vec) bool { return p.Dist(a) <= rs || p.Dist(b) <= rs })
	}
}

func bbox(vs []geom.Vec) (lo, hi geom.Vec) {
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		lo.X, lo.Y = math.Min(lo.X, v.X), math.Min(lo.Y, v.Y)
		hi.X, hi.Y = math.Max(hi.X, v.X), math.Max(hi.Y, v.Y)
	}
	return lo, hi
}

func distToBox(p, lo, hi geom.Vec) float64 {
	dx := math.Max(math.Max(lo.X-p.X, p.X-hi.X), 0)
	dy := math.Max(math.Max(lo.Y-p.Y, p.Y-hi.Y), 0)
	return math.Hypot(dx, dy)
}

// Solve re-solves the current scenario. The placement is bit-for-bit the
// one core.Solve would produce on the same scenario with the same options;
// only the amount of recomputation differs. Consecutive Solves without
// intervening mutations return the previous solution.
func (s *Session) Solve() (*core.Solution, error) {
	if s.fresh && s.prev != nil {
		s.stats.FastPath++
		return s.prev, nil
	}
	cfg := pdcs.Config{Eps1: s.opt.Eps1(), Workers: s.opt.Workers, Tracer: s.opt.Tracer}
	// The index outlives device moves; keep its viewpoint memos to the
	// devices as they stand.
	pts := make([]geom.Vec, len(s.sc.Devices))
	for i, d := range s.sc.Devices {
		pts[i] = d.Pos
	}
	s.sc.AttachedVisibilityIndex().(*visindex.Index).RetainViewpoints(pts)
	workers := s.opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	flushMemoStats := visindex.TraceMemoStats(s.sc, s.opt.Tracer)
	cands := schedule.RunPool(len(s.types), workers, func(q int) []pdcs.Candidate {
		return s.types[q].Extract(s.sc, q, cfg)
	})
	flushMemoStats()

	sol, err := core.SelectWith(s.sc, cands, s.opt, s.greedyWarm)
	if err != nil {
		return nil, err
	}
	s.prev, s.fresh = sol, true
	s.stats.Solves++
	return sol, nil
}

// greedyWarm is the lazy greedy with round-0 gains replayed from the
// content-addressed cache when bit-exact reuse is possible.
func (s *Session) greedyWarm(inst *submodular.Instance, flat []pdcs.Candidate) submodular.Result {
	var prior []float64
	if s.gainsOK && s.opt.Objective == nil {
		prior = make([]float64, len(flat))
		for e := range flat {
			if g, ok := s.gains[coverKey(flat[e].Covers)]; ok {
				prior[e] = g
				s.stats.GainsWarm++
			} else {
				prior[e] = math.NaN()
				s.stats.GainsCold++
			}
		}
	} else {
		s.stats.GainsCold += len(flat)
	}
	res, table := submodular.GreedyLazyWarm(inst, prior)

	// Rebuild the gain cache from this run's exact table (its own
	// mark-and-sweep: stale coverage signatures drop out).
	if s.opt.Objective == nil {
		s.gains = make(map[string]float64, len(flat))
		for e := range flat {
			s.gains[coverKey(flat[e].Covers)] = table[e]
		}
		s.gainsOK = true
	}
	return res
}

// coverKey content-addresses a coverage list: the round-0 singleton gain of
// an element is a pure function of (Covers, Weight, Phi), and the cache is
// cleared whenever the device count or type tables change, so equal keys
// imply bit-equal gains. The key is the full binary content — no lossy
// hashing, so a collision cannot smuggle a wrong gain into the CELF heap.
func coverKey(covers []pdcs.DevPower) string {
	buf := make([]byte, 0, 16*len(covers))
	for _, dp := range covers {
		d, p := uint64(dp.Device), math.Float64bits(dp.Power)
		buf = append(buf,
			byte(d), byte(d>>8), byte(d>>16), byte(d>>24),
			byte(d>>32), byte(d>>40), byte(d>>48), byte(d>>56),
			byte(p), byte(p>>8), byte(p>>16), byte(p>>24),
			byte(p>>32), byte(p>>40), byte(p>>48), byte(p>>56))
	}
	return string(buf)
}
