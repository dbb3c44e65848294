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
// certificate), and selects through core.SelectFromCandidates, the call
// core.Solve ends in, so every incremental solve is bit-for-bit identical
// to core.Solve on the mutated scenario, and traced like one. The parity
// tests in this package (TestParityAcrossMutations runs up to 200
// obstacles × 200 devices) and the identity wall in internal/pdcs enforce
// exactly that, not an approximate agreement.
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
}

// Session incrementally re-solves one scenario under a mutation stream.
// Not safe for concurrent use.
type Session struct {
	sc  *model.Scenario
	opt core.Options
	// types[q] holds charger type q's discretize task parts and the sweeps
	// of the last solve's positions that no mutation has reached since.
	types []*pdcs.Store

	prev  *core.Solution
	fresh bool // prev reflects the current scenario
	stats Stats
}

// NewSession validates the scenario and primes a session. The first Solve
// is a cold solve run through the incremental machinery (so its caches fill
// and its output is the cold placement, bit for bit). The scenario is
// cloned; the caller's copy is never touched.
//
// opt.Eps must be zero or inside (0, 1/2); every greedy variant is
// accepted. opt.Ctx is ignored; mutations and solves are short-lived
// relative to a cold pipeline run.
func NewSession(sc *model.Scenario, opt core.Options) (*Session, error) {
	if _, err := opt.Epsilon(); err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
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

// Apply applies the mutations in order. Each is checked before it lands by
// the model's own rules (ValidateDevice, ValidateObstacle), so a rejection is
// the *model.FieldError Validate reports for the scenario it would produce,
// or "devices[i]" for an index past the devices. On error the earlier
// mutations of the batch remain applied and the session stays consistent.
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
	if (m.Op == OpRemoveDevice || m.Op == OpMoveDevice) && (m.Index < 0 || m.Index >= len(s.sc.Devices)) {
		return model.Errorf(fmt.Sprintf("devices[%d]", m.Index), "no such device; the scenario has %d", len(s.sc.Devices))
	}
	switch m.Op {
	case OpAddDevice:
		if err := s.sc.ValidateDevice(len(s.sc.Devices), m.Device); err != nil {
			return err
		}
		s.sc.Devices = append(s.sc.Devices, m.Device)
		for _, ts := range s.types {
			ts.Tasks.AddTask()
		}
		s.invalidateAround(m.Device.Pos, m.Device.Pos)
		return nil

	case OpRemoveDevice:
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
		return nil

	case OpMoveDevice:
		d := s.sc.Devices[m.Index]
		d.Pos, d.Orient = m.Device.Pos, m.Device.Orient
		if err := s.sc.ValidateDevice(m.Index, d); err != nil {
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
		if err := s.sc.ValidateObstacle(len(s.sc.Obstacles), m.Obstacle); err != nil {
			return err
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

	sol, err := core.SelectFromCandidates(s.sc, cands, s.opt)
	if err != nil {
		return nil, err
	}
	s.prev, s.fresh = sol, true
	s.stats.Solves++
	return sol, nil
}
