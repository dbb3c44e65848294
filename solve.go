package hipo

import (
	"context"

	"hipo/internal/core"
	"hipo/internal/deploycost"
	"hipo/internal/fairness"
	"hipo/internal/hipotrace"
	"hipo/internal/power"
	"hipo/internal/redeploy"
)

// Option tunes the solver.
type Option func(*options)

type options struct {
	eps     float64
	variant core.GreedyVariant
	workers int
	ctx     context.Context
	tracer  *Tracer
}

func buildOptions(opts []Option) options {
	o := options{eps: 0.15}
	for _, f := range opts {
		f(&o)
	}
	return o
}

func (o options) core() core.Options {
	return core.Options{
		Eps: o.eps, Variant: o.variant, Workers: o.workers, Ctx: o.ctx,
		Tracer: o.tracer.internal(),
	}
}

// WithEps sets the approximation parameter ε ∈ (0, 1/2) of the 1/2 − ε
// guarantee (default 0.15; zero also selects the default). Smaller ε means
// finer power approximation, more candidate strategies, and longer
// runtimes. Solve, NewIncremental, and SolveIncremental reject any other
// value outside (0, 1/2), NaN included.
func WithEps(eps float64) Option { return func(o *options) { o.eps = eps } }

// WithPerTypeGreedy selects the paper's Algorithm 3 (partitions processed
// in charger-type order) instead of the default lazy global greedy. Both
// carry the 1/2 − ε guarantee.
func WithPerTypeGreedy() Option {
	return func(o *options) { o.variant = core.GreedyPerType }
}

// WithWorkers bounds the goroutines of each parallel pool in a charger
// type's extraction pipeline — task generation, the usefulness filter and
// the position sweep (0, the default, uses GOMAXPROCS). Solve runs the
// types' pipelines one after another; an Incremental session runs the same
// pipelines concurrently on n goroutines, each with its own pools of n.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithContext attaches a context so long solves can be canceled between
// pipeline stages; the solve returns the context's error once observed.
func WithContext(ctx context.Context) Option {
	return func(o *options) { o.ctx = ctx }
}

// WithContinuousGreedy selects the continuous greedy of the paper's
// reference [39], which improves the guarantee from 1/2 − ε to 1 − 1/e − ε
// at a substantially higher runtime (the paper considers it impractical;
// it is exposed for experimentation on small scenarios).
func WithContinuousGreedy() Option {
	return func(o *options) { o.variant = core.GreedyContinuous }
}

// Tracer collects the per-stage timing and counter breakdown of a solve:
// spans for the discretize/pdcs/greedy pipeline stages, counters such as
// line-of-sight queries and greedy gain evaluations, and runtime/pprof
// goroutine labels (hipo_stage, hipo_detail) so CPU profiles attribute
// samples to pipeline stages. Create one with NewTracer, pass it via
// WithTracer, and read the result from Placement.Trace or Breakdown.
//
// Tracing is observational only: placements are bit-for-bit identical with
// and without a tracer, and the disabled path adds no allocations to the
// solver's hot loops. A Tracer is safe for concurrent use by the pipeline's
// worker goroutines but should not be reused across solves — breakdowns
// would mix their spans.
type Tracer struct {
	t *hipotrace.Tracer
}

// NewTracer returns an empty tracer ready to pass to WithTracer.
func NewTracer() *Tracer { return &Tracer{t: hipotrace.New()} }

// internal unwraps the tracer for core.Options; nil-safe.
func (tr *Tracer) internal() *hipotrace.Tracer {
	if tr == nil {
		return nil
	}
	return tr.t
}

// TraceBreakdown is the JSON-ready per-stage summary of a traced solve:
// total wall time, individual stage spans in start order, per-stage duration
// totals, and the non-zero pipeline counters. Its String method renders an
// aligned table (what cmd/hipo -trace prints).
type TraceBreakdown = hipotrace.Breakdown

// Breakdown summarizes everything the tracer collected so far. Returns nil
// on a nil Tracer.
func (tr *Tracer) Breakdown() *TraceBreakdown { return tr.internal().Breakdown() }

// WithTracer attaches a tracer to the solve. The solve fills it with stage
// spans and counters and embeds the final breakdown in Placement.Trace.
func WithTracer(tr *Tracer) Option { return func(o *options) { o.tracer = tr } }

// trace returns the breakdown to embed in a Placement, or nil when the
// solve ran untraced (keeping the JSON byte-identical to pre-trace output).
func (o options) trace() *TraceBreakdown {
	if o.tracer == nil {
		return nil
	}
	return o.tracer.Breakdown()
}

// Solve places the scenario's chargers to maximize total charging utility
// using the full HIPO pipeline (area discretization → PDCS extraction →
// greedy submodular maximization), achieving a 1/2 − ε approximation.
func (s *Scenario) Solve(opts ...Option) (*Placement, error) {
	sc, err := s.internalScenario()
	if err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	sol, err := core.Solve(sc, o.core())
	if err != nil {
		return nil, err
	}
	return &Placement{
		Chargers:        strategiesToPlaced(sol.Placed),
		Utility:         sol.Utility,
		CandidateCounts: sol.Candidates,
		Trace:           o.trace(),
	}, nil
}

// Metrics reports the per-device outcome of a placement.
type Metrics struct {
	// Utility is the total charging utility (mean of DeviceUtilities).
	Utility float64 `json:"utility"`
	// DeviceUtilities[j] is device j's utility in [0, 1].
	DeviceUtilities []float64 `json:"device_utilities"`
	// DevicePowers[j] is device j's received power.
	DevicePowers []float64 `json:"device_powers"`
	// MinUtility is the worst device's utility (the max-min objective).
	MinUtility float64 `json:"min_utility"`
}

// Evaluate computes the exact charging metrics of an arbitrary placement on
// this scenario — use it to score hand-crafted or third-party placements.
func (s *Scenario) Evaluate(p *Placement) (*Metrics, error) {
	sc, err := s.internalScenario()
	if err != nil {
		return nil, err
	}
	placed := placedToStrategies(p.Chargers)
	m := &Metrics{
		Utility:         power.TotalUtility(sc, placed),
		DeviceUtilities: power.DeviceUtilities(sc, placed),
		DevicePowers:    power.DevicePowers(sc, placed),
	}
	m.MinUtility = 1
	if len(m.DeviceUtilities) == 0 {
		m.MinUtility = 0
	}
	for _, u := range m.DeviceUtilities {
		if u < m.MinUtility {
			m.MinUtility = u
		}
	}
	return m, nil
}

// RedeployPlan describes how to migrate chargers from an old placement to a
// new one.
type RedeployPlan struct {
	// Moves pairs each old charger with its new strategy.
	Moves []RedeployMove `json:"moves"`
	// TotalCost and MaxCost summarize the switching overhead.
	TotalCost float64 `json:"total_cost"`
	MaxCost   float64 `json:"max_cost"`
}

// RedeployMove is one charger's transition. Kind is empty for an ordinary
// move; "install" marks a charger that exists only in the new placement
// (From mirrors To), "decommission" one that exists only in the old
// placement (To mirrors From) — both appear when a mutation changed how
// many chargers of a type are deployed.
type RedeployMove struct {
	From PlacedCharger `json:"from"`
	To   PlacedCharger `json:"to"`
	Cost float64       `json:"cost"`
	Kind string        `json:"kind,omitempty"`
}

// RedeployCost weighs movement and rotation in the switching overhead.
// PerInstall and PerDecommission are the flat costs charged when the old
// and new placements deploy different charger counts of a type (zero by
// default: count changes are planned but not priced).
type RedeployCost struct {
	PerMeter        float64 `json:"per_meter"`
	PerRadian       float64 `json:"per_radian"`
	PerInstall      float64 `json:"per_install,omitempty"`
	PerDecommission float64 `json:"per_decommission,omitempty"`
}

func (s *Scenario) redeploy(old, new_ *Placement, cost RedeployCost, minmax bool) (*RedeployPlan, error) {
	sc, err := s.internalScenario()
	if err != nil {
		return nil, err
	}
	cm := redeploy.CostModel{
		PerMeter:        cost.PerMeter,
		PerRadian:       cost.PerRadian,
		PerInstall:      cost.PerInstall,
		PerDecommission: cost.PerDecommission,
	}
	var plan *redeploy.Plan
	if minmax {
		plan, err = redeploy.MinMax(placedToStrategies(old.Chargers),
			placedToStrategies(new_.Chargers), len(sc.ChargerTypes), cm)
	} else {
		plan, err = redeploy.MinTotal(placedToStrategies(old.Chargers),
			placedToStrategies(new_.Chargers), len(sc.ChargerTypes), cm)
	}
	if err != nil {
		return nil, err
	}
	out := &RedeployPlan{TotalCost: plan.Total, MaxCost: plan.Max}
	for _, mv := range plan.Moves {
		out.Moves = append(out.Moves, RedeployMove{
			From: PlacedCharger{Pos: fromVec(mv.From.Pos), Orient: mv.From.Orient, Type: mv.From.Type},
			To:   PlacedCharger{Pos: fromVec(mv.To.Pos), Orient: mv.To.Orient, Type: mv.To.Type},
			Cost: mv.Cost,
			Kind: string(mv.Kind),
		})
	}
	return out, nil
}

// RedeployMinTotal plans the migration from old to new minimizing the total
// switching overhead (per charger type, a minimum-cost matching — Section
// 8.1.1 of the paper). When old and new place different charger counts of a
// type, the surplus is planned explicitly as install or decommission moves
// priced by RedeployCost.PerInstall / PerDecommission.
func (s *Scenario) RedeployMinTotal(old, new_ *Placement, cost RedeployCost) (*RedeployPlan, error) {
	return s.redeploy(old, new_, cost, false)
}

// RedeployMinMax plans the migration minimizing the maximum per-charger
// overhead, then the total overhead among such plans (Section 8.1.2).
func (s *Scenario) RedeployMinMax(old, new_ *Placement, cost RedeployCost) (*RedeployPlan, error) {
	return s.redeploy(old, new_, cost, true)
}

// DeploymentBudget configures budget-constrained placement (Section 8.2):
// cost per charger = PerMeter·dist(Depot, position) + PerRadian·|rotation| +
// PerWatt·TypePower[type], capped by Budget.
type DeploymentBudget struct {
	Depot     Point     `json:"depot"`
	PerMeter  float64   `json:"per_meter"`
	PerRadian float64   `json:"per_radian"`
	PerWatt   float64   `json:"per_watt"`
	TypePower []float64 `json:"type_power,omitempty"`
	Budget    float64   `json:"budget"`
}

// SolveBudgeted places chargers maximizing utility subject to the
// deployment-cost budget, via the cost-benefit greedy over the PDCS
// candidate set. Per-type cardinalities are advisory under the budget.
func (s *Scenario) SolveBudgeted(b DeploymentBudget, opts ...Option) (*Placement, error) {
	sc, err := s.internalScenario()
	if err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	cm := deploycost.LinearCostModel(b.Depot.vec(), b.PerMeter, b.PerRadian, b.PerWatt, b.TypePower)
	res, err := deploycost.SolveBudgeted(sc, cm, b.Budget, o.core())
	if err != nil {
		return nil, err
	}
	return &Placement{
		Chargers: strategiesToPlaced(res.Placed),
		Utility:  power.TotalUtility(sc, res.Placed),
		Trace:    o.trace(),
	}, nil
}

// SolveMaxMin maximizes the minimum device utility (max-min fairness,
// Section 8.3) by simulated annealing over the PDCS candidate set, seeded
// with the greedy HIPO solution. iterations ≤ 0 uses a sensible default.
func (s *Scenario) SolveMaxMin(iterations int, seed int64, opts ...Option) (*Placement, error) {
	sc, err := s.internalScenario()
	if err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	sa := fairness.DefaultSAOptions()
	if iterations > 0 {
		sa.Iterations = iterations
	}
	sa.Seed = seed
	placed, _, err := fairness.MaxMinSA(sc, o.core(), sa)
	if err != nil {
		return nil, err
	}
	return &Placement{
		Chargers: strategiesToPlaced(placed),
		Utility:  power.TotalUtility(sc, placed),
		Trace:    o.trace(),
	}, nil
}

// SolveProportionalFair maximizes Σ log(1 + U_j), the proportional-fairness
// objective of Section 8.3 — still monotone submodular, so the greedy keeps
// its 1/2 − ε guarantee.
func (s *Scenario) SolveProportionalFair(opts ...Option) (*Placement, error) {
	sc, err := s.internalScenario()
	if err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	sol, err := fairness.ProportionalFair(sc, o.core())
	if err != nil {
		return nil, err
	}
	return &Placement{
		Chargers:        strategiesToPlaced(sol.Placed),
		Utility:         sol.Utility,
		CandidateCounts: sol.Candidates,
		Trace:           o.trace(),
	}, nil
}

// ApproximationRatio returns the theoretical guarantee 1/2 − ε for the
// given options.
func ApproximationRatio(opts ...Option) float64 {
	o := buildOptions(opts)
	return core.Options{Eps: o.eps}.TheoreticalRatio()
}
