package hipo

import (
	"fmt"

	"hipo/internal/incremental"
	"hipo/internal/model"
)

// Mutation op identifiers, as carried in Mutation.Op (and in the JSON the
// server's mutation endpoint accepts).
const (
	MutationAddDevice    = "add_device"
	MutationRemoveDevice = "remove_device"
	MutationMoveDevice   = "move_device"
	MutationAddObstacle  = "add_obstacle"
)

// Mutation is one scenario edit for incremental solving. Construct with the
// Mutate* helpers; the zero value is invalid. The struct is plain data with
// a stable JSON schema so mutation streams can be stored and replayed.
type Mutation struct {
	// Op is one of the Mutation* constants.
	Op string `json:"op"`
	// Index selects the device for remove_device and move_device.
	Index int `json:"index,omitempty"`
	// Device is the device to append (add_device) or the new position and
	// orientation (move_device; its Type field is ignored when moving).
	Device *Device `json:"device,omitempty"`
	// Obstacle is the polygon to append (add_obstacle).
	Obstacle *Obstacle `json:"obstacle,omitempty"`
}

// MutateAddDevice appends device d to the scenario.
func MutateAddDevice(d Device) Mutation {
	return Mutation{Op: MutationAddDevice, Device: &d}
}

// MutateRemoveDevice removes the device at index; devices after it shift
// down by one.
func MutateRemoveDevice(index int) Mutation {
	return Mutation{Op: MutationRemoveDevice, Index: index}
}

// MutateMoveDevice repositions the device at index (its type is unchanged).
func MutateMoveDevice(index int, pos Point, orient float64) Mutation {
	return Mutation{Op: MutationMoveDevice, Index: index, Device: &Device{Pos: pos, Orient: orient}}
}

// MutateAddObstacle appends obstacle o to the scenario.
func MutateAddObstacle(o Obstacle) Mutation {
	return Mutation{Op: MutationAddObstacle, Obstacle: &o}
}

// internal converts the public mutation into the session representation.
func (m Mutation) internal() (incremental.Mutation, error) {
	switch m.Op {
	case MutationAddDevice:
		if m.Device == nil {
			return incremental.Mutation{}, fmt.Errorf("hipo: %s mutation needs a device", m.Op)
		}
		return incremental.AddDevice(model.Device{
			Pos: m.Device.Pos.vec(), Orient: m.Device.Orient, Type: m.Device.Type,
		}), nil
	case MutationRemoveDevice:
		return incremental.RemoveDevice(m.Index), nil
	case MutationMoveDevice:
		if m.Device == nil {
			return incremental.Mutation{}, fmt.Errorf("hipo: %s mutation needs a device", m.Op)
		}
		return incremental.MoveDevice(m.Index, m.Device.Pos.vec(), m.Device.Orient), nil
	case MutationAddObstacle:
		if m.Obstacle == nil {
			return incremental.Mutation{}, fmt.Errorf("hipo: %s mutation needs an obstacle", m.Op)
		}
		var ob model.Obstacle
		for _, v := range m.Obstacle.Vertices {
			ob.Shape.Vertices = append(ob.Shape.Vertices, v.vec())
		}
		return incremental.AddObstacle(ob), nil
	default:
		return incremental.Mutation{}, fmt.Errorf("hipo: unknown mutation op %q", m.Op)
	}
}

// IncrementalStats counts the work an incremental session did and skipped,
// cumulative since NewIncremental.
type IncrementalStats struct {
	// Mutations applied, pipeline solves run, and solves served straight
	// from the previous solution (no mutations in between).
	Mutations int `json:"mutations"`
	Solves    int `json:"solves"`
	FastPath  int `json:"fast_path"`
	// Discretization tasks and Algorithm 1 position sweeps recomputed
	// versus served from the session caches. A task counts as recomputed
	// when any of its parts (ring cuts, event samples, one device pair)
	// was regenerated.
	TasksRecomputed int `json:"tasks_recomputed"`
	TasksReused     int `json:"tasks_reused"`
	SweepsComputed  int `json:"sweeps_computed"`
	SweepsReused    int `json:"sweeps_reused"`
	// Deprecated: selection is not warm-started; always zero.
	GainsWarm int `json:"gains_warm"`
	// Deprecated: selection is not warm-started; always zero.
	GainsCold int `json:"gains_cold"`
}

// Incremental is a stateful solving session: apply scenario mutations and
// re-solve, reusing everything outside each mutation's geometric blast
// radius. Placements are bit-for-bit identical to a cold
// (*Scenario).Solve of the mutated scenario with the same options — the
// session only changes how much work the solve repeats. Not safe for
// concurrent use.
type Incremental struct {
	o    options
	sess *incremental.Session
	prev []PlacedCharger // placement before the latest pipeline solve
	cur  []PlacedCharger // latest placement
}

// NewIncremental starts an incremental session on a copy of the scenario.
func (s *Scenario) NewIncremental(opts ...Option) (*Incremental, error) {
	sc, err := s.internalScenario()
	if err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	sess, err := incremental.NewSession(sc, o.core())
	if err != nil {
		return nil, err
	}
	return &Incremental{o: o, sess: sess}, nil
}

// Apply applies the mutations in order, validating each against the current
// scenario: a mutation that would make it invalid is rejected with the
// *FieldError Validate would report for the result ("scenario.devices[3].pos"
// for a device moved into an obstacle). On error, mutations earlier in the
// batch remain applied and the session stays usable.
func (inc *Incremental) Apply(muts ...Mutation) error {
	for _, m := range muts {
		im, err := m.internal()
		if err != nil {
			return err
		}
		if err := inc.sess.Apply(im); err != nil {
			return inputError("scenario", err)
		}
	}
	return nil
}

// Solve solves the current scenario, reusing session caches. Consecutive
// calls without intervening Apply return the previous placement without
// re-running the pipeline.
func (inc *Incremental) Solve() (*Placement, error) {
	fast := inc.sess.Stats().FastPath
	sol, err := inc.sess.Solve()
	if err != nil {
		return nil, err
	}
	p := &Placement{
		Chargers:        strategiesToPlaced(sol.Placed),
		Utility:         sol.Utility,
		CandidateCounts: sol.Candidates,
		Trace:           inc.o.trace(),
	}
	if inc.sess.Stats().FastPath == fast {
		// A real pipeline run: the previous placement becomes the redeploy
		// baseline.
		inc.prev, inc.cur = inc.cur, p.Chargers
	}
	return p, nil
}

// Redeploy plans the minimum-total-switching-cost transition from the
// placement before the latest solve to the latest one (Section 8.1 applied
// to consecutive incremental placements). It needs at least two pipeline
// solves; unequal per-type counts are handled by install/decommission moves.
func (inc *Incremental) Redeploy(cost RedeployCost) (*RedeployPlan, error) {
	if inc.prev == nil || inc.cur == nil {
		return nil, fmt.Errorf("hipo: redeploy needs two solved placements; run Solve before and after a mutation")
	}
	return inc.Scenario().redeploy(
		&Placement{Chargers: inc.prev}, &Placement{Chargers: inc.cur}, cost, false)
}

// Scenario returns a copy of the session's current (mutated) scenario.
func (inc *Incremental) Scenario() *Scenario {
	return publicScenario(inc.sess.Scenario())
}

// Stats reports the session's cumulative cache counters.
func (inc *Incremental) Stats() IncrementalStats {
	st := inc.sess.Stats()
	return IncrementalStats{
		Mutations: st.Mutations, Solves: st.Solves, FastPath: st.FastPath,
		TasksRecomputed: st.TasksRecomputed, TasksReused: st.TasksReused,
		SweepsComputed: st.SweepsComputed, SweepsReused: st.SweepsReused,
	}
}

// SolveIncremental applies the mutations to a copy of the scenario and
// solves the result through the incremental machinery. It is the one-shot
// form of NewIncremental + Apply + Solve; use a session to amortize caches
// across several mutation/solve rounds.
func (s *Scenario) SolveIncremental(muts []Mutation, opts ...Option) (*Placement, error) {
	inc, err := s.NewIncremental(opts...)
	if err != nil {
		return nil, err
	}
	if err := inc.Apply(muts...); err != nil {
		return nil, err
	}
	return inc.Solve()
}

// publicScenario converts an internal scenario back to the public schema.
func publicScenario(sc *model.Scenario) *Scenario {
	out := &Scenario{
		Min: fromVec(sc.Region.Min),
		Max: fromVec(sc.Region.Max),
	}
	for _, c := range sc.ChargerTypes {
		out.ChargerTypes = append(out.ChargerTypes, ChargerSpec{
			Name: c.Name, Alpha: c.Alpha, DMin: c.DMin, DMax: c.DMax, Count: c.Count,
		})
	}
	for _, d := range sc.DeviceTypes {
		out.DeviceTypes = append(out.DeviceTypes, DeviceSpec{
			Name: d.Name, Alpha: d.Alpha, PTh: d.PTh,
		})
	}
	for _, row := range sc.Power {
		var r []PowerParams
		for _, p := range row {
			r = append(r, PowerParams{A: p.A, B: p.B})
		}
		out.Power = append(out.Power, r)
	}
	for _, d := range sc.Devices {
		out.Devices = append(out.Devices, Device{Pos: fromVec(d.Pos), Orient: d.Orient, Type: d.Type})
	}
	for _, o := range sc.Obstacles {
		var vs []Point
		for _, v := range o.Shape.Vertices {
			vs = append(vs, fromVec(v))
		}
		out.Obstacles = append(out.Obstacles, Obstacle{Vertices: vs})
	}
	return out
}
