// Package core is the end-to-end HIPO solver — the paper's primary
// contribution. It chains the three steps of Section 4: multi-feasible
// geometric area discretization with the piecewise-constant power
// approximation (via internal/discretize), Practical Dominating Coverage Set
// extraction (via internal/pdcs), and greedy monotone-submodular
// maximization under the partition matroid of charger-type budgets (via
// internal/submodular), achieving the 1/2 − ε approximation of Theorem 4.2.
package core

import (
	"context"
	"fmt"
	"math"

	"hipo/internal/hipotrace"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/power"
	"hipo/internal/submodular"
	"hipo/internal/visindex"
)

// GreedyVariant selects the strategy-selection algorithm.
type GreedyVariant int

const (
	// GreedyLazy is the CELF-accelerated global greedy (default; identical
	// value to submodular.GreedyGlobal, usually far fewer gain evaluations).
	GreedyLazy GreedyVariant = iota
	// GreedyPerType is the paper's Algorithm 3: partitions processed in
	// charger-type order.
	GreedyPerType
	// GreedyContinuous runs the continuous greedy of the paper's reference
	// [39] (1 − 1/e − ε guarantee) — the variant the paper deems "too
	// computationally demanding to use in practice". Provided for the
	// ablation benchmarks and small instances.
	GreedyContinuous
)

// Options tunes the solver.
type Options struct {
	// Eps is the overall approximation parameter ε of Theorem 4.2
	// (0 < ε < 1/2). The level parameter is ε₁ = 2ε/(1−2ε). Zero selects
	// DefaultEps; Solve rejects any other value outside (0, 1/2).
	Eps float64
	// Variant selects the greedy flavor. Default GreedyLazy.
	Variant GreedyVariant
	// Workers bounds the goroutines of each parallel pool (0 =
	// GOMAXPROCS): task generation, the usefulness filter and the position
	// sweep of the per-type pipeline (pdcs.Extract). Solve runs the charger
	// types one after another, each with these pools; an incremental
	// session runs the same pipeline for its types on a pool of Workers, so
	// it may run Workers² goroutines at once (see internal/incremental).
	Workers int
	// SkipDominanceFilter is an ablation switch forwarded to PDCS
	// extraction.
	SkipDominanceFilter bool
	// Objective overrides the per-device utility curves; nil uses the
	// charging utility of Eq. (3). Used by the proportional-fairness
	// variant of Section 8.3.
	Objective func(sc *model.Scenario, j int) submodular.Scalar
	// Ctx, when non-nil, allows canceling a long solve between pipeline
	// stages (per charger type during extraction and before selection).
	Ctx context.Context
	// Tracer, when non-nil, collects per-stage spans, pipeline counters,
	// and pprof goroutine labels for this solve (internal/hipotrace). It
	// never influences placement decisions; a nil Tracer costs nothing.
	Tracer *hipotrace.Tracer
}

// canceled reports whether the options' context has been canceled.
func (o Options) canceled() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// DefaultEps is the paper's default approximation parameter ε.
const DefaultEps = 0.15

// DefaultOptions returns the paper's default parameters (ε = 0.15).
func DefaultOptions() Options { return Options{Eps: DefaultEps} }

// Epsilon resolves the approximation parameter the pipeline runs at: Eps,
// or DefaultEps when Eps is zero. A value outside (0, 1/2) — NaN included —
// returns DefaultEps together with an error; entry points that can fail
// reject it, the rest run at the default.
func (o Options) Epsilon() (float64, error) {
	switch {
	//lint:ignore floatcmp zero is the exact unset sentinel of Options, not a computed value
	case o.Eps == 0:
		return DefaultEps, nil
	case o.Eps > 0 && o.Eps < 0.5: // written positively so NaN fails it
		return o.Eps, nil
	default:
		return DefaultEps, fmt.Errorf("core: ε = %v outside (0, 1/2)", o.Eps)
	}
}

// Eps1 returns the level parameter ε₁ = 2ε/(1−2ε) of the resolved ε.
func (o Options) Eps1() float64 {
	eps, _ := o.Epsilon()
	return power.Eps1ForEps(eps)
}

// Solution is a solved placement.
type Solution struct {
	// Placed are the selected strategies, in greedy selection order.
	Placed []model.Strategy
	// Utility is the exact total charging utility of the placement
	// (Eq. (4)), computed with the exact power model, not the piecewise
	// approximation used during optimization.
	Utility float64
	// ApproxValue is the objective value under the piecewise approximation
	// that the greedy actually optimized.
	ApproxValue float64
	// Candidates is the number of candidate strategies per charger type
	// after dominance filtering.
	Candidates []int
}

// Solve runs the full HIPO pipeline on the scenario. The spatial
// visibility index is built once here and shared by every downstream
// occlusion query of the solve; Ensure clones, so the caller's scenario is
// never mutated.
func Solve(sc *model.Scenario, opt Options) (*Solution, error) {
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid scenario: %w", err)
	}
	if _, err := opt.Epsilon(); err != nil {
		return nil, err
	}
	sc = visindex.Ensure(sc)
	cands, err := ExtractCandidates(sc, opt)
	if err != nil {
		return nil, err
	}
	return SelectFromCandidates(sc, cands, opt)
}

// ExtractCandidates runs PDCS extraction for every charger type, with the
// pools of each type's pipeline parallel inside. A canceled opt.Ctx stops
// it between types with an error wrapping the context's.
func ExtractCandidates(sc *model.Scenario, opt Options) ([][]pdcs.Candidate, error) {
	sc = visindex.Ensure(sc)
	cfg := pdcs.Config{
		Eps1:                opt.Eps1(),
		Workers:             opt.Workers,
		SkipDominanceFilter: opt.SkipDominanceFilter,
		Tracer:              opt.Tracer,
	}
	defer visindex.TraceMemoStats(sc, opt.Tracer)()
	// Types run sequentially; the position sweep inside each Extract is
	// already parallel. Unlike a warm session, a cold solve keeps them
	// sequential: perfbench's traced run replays pdcs.Extract one type at a
	// time and reconciles the stage sum with Solve's wall time, which an
	// overlapped type loop would break.
	out := make([][]pdcs.Candidate, len(sc.ChargerTypes))
	for q := range sc.ChargerTypes {
		if err := opt.canceled(); err != nil {
			return nil, fmt.Errorf("core: solve canceled: %w", err)
		}
		out[q] = pdcs.Extract(sc, q, cfg)
	}
	return out, nil
}

// label names the variant for trace spans and pprof detail labels.
func (v GreedyVariant) label() string {
	switch v {
	case GreedyPerType:
		return "per-type"
	case GreedyContinuous:
		return "continuous"
	default:
		return "lazy"
	}
}

// SelectFromCandidates runs the greedy strategy selection (Section 4.3)
// over pre-extracted candidates.
func SelectFromCandidates(sc *model.Scenario, cands [][]pdcs.Candidate, opt Options) (*Solution, error) {
	return SelectWith(sc, cands, opt, func(inst *submodular.Instance, _ []pdcs.Candidate) submodular.Result {
		switch opt.Variant {
		case GreedyPerType:
			return submodular.GreedyPerType(inst)
		case GreedyContinuous:
			// The polytope formulation needs distinct elements.
			inst.AllowRepeat = false
			return submodular.ContinuousGreedy(inst, submodular.DefaultContinuousOptions())
		default:
			return submodular.GreedyLazy(inst)
		}
	})
}

// SelectWith is SelectFromCandidates with the greedy supplied by the
// caller: greedy receives the traced instance BuildInstance produced and
// the flat candidate list its elements index, and its result becomes the
// Solution. Warm-started selection (internal/incremental) runs through it.
func SelectWith(sc *model.Scenario, cands [][]pdcs.Candidate, opt Options, greedy func(*submodular.Instance, []pdcs.Candidate) submodular.Result) (*Solution, error) {
	if err := opt.canceled(); err != nil {
		return nil, fmt.Errorf("core: solve canceled: %w", err)
	}
	inst, flat := BuildInstance(sc, cands, opt)
	inst.Tracer = opt.Tracer
	endGreedy := opt.Tracer.StartStage(hipotrace.StageGreedy, opt.Variant.label())
	res := greedy(inst, flat)
	endGreedy()
	sol := &Solution{ApproxValue: res.Value, Candidates: make([]int, len(cands))}
	for q := range cands {
		sol.Candidates[q] = len(cands[q])
	}
	for _, e := range res.Selected {
		sol.Placed = append(sol.Placed, flat[e].S)
	}
	sol.Utility = power.TotalUtility(sc, sol.Placed)
	return sol, nil
}

// BuildInstance converts per-type candidate sets into a submodular
// instance: one element per candidate strategy, partitioned by charger
// type, with the normalized utility objective of problem P3.
func BuildInstance(sc *model.Scenario, cands [][]pdcs.Candidate, opt Options) (*submodular.Instance, []pdcs.Candidate) {
	no := len(sc.Devices)
	inst := &submodular.Instance{
		Phi:    make([]submodular.Scalar, no),
		Weight: make([]float64, no),
		Budget: make([]int, len(sc.ChargerTypes)),
	}
	for j := 0; j < no; j++ {
		if opt.Objective != nil {
			inst.Phi[j] = opt.Objective(sc, j)
		} else {
			inst.Phi[j] = submodular.UtilityPhi(sc.DeviceTypes[sc.Devices[j].Type].PTh)
		}
		inst.Weight[j] = 1 / float64(max(no, 1))
	}
	for q, ct := range sc.ChargerTypes {
		inst.Budget[q] = ct.Count
	}
	// Dominance filtering keeps one representative strategy per coverage
	// signature, but the continuous problem has arbitrarily many equivalent
	// placements in the same feasible region; allow spending budget on
	// repeats of a representative.
	inst.AllowRepeat = true
	var flat []pdcs.Candidate
	for q := range cands {
		for _, c := range cands[q] {
			el := submodular.Element{Part: q}
			for _, dp := range c.Covers {
				el.Covers = append(el.Covers, submodular.Entry{Device: dp.Device, Power: dp.Power})
			}
			inst.Elements = append(inst.Elements, el)
			flat = append(flat, c)
		}
	}
	return inst, flat
}

// TheoreticalRatio returns the approximation guarantee 1/2 − ε achieved by
// the pipeline for the configured ε (Theorem 4.2).
func (o Options) TheoreticalRatio() float64 {
	eps, _ := o.Epsilon()
	return 0.5 - eps
}

// Complexity returns the time-complexity bound of Theorem 4.2,
// O(Ns · No⁴ · ε⁻² · Nh² · c²), evaluated for the scenario's sizes; c is
// the maximum obstacle vertex count. Reported by benchmarks for context.
func Complexity(sc *model.Scenario, eps float64) float64 {
	ns := float64(sc.TotalChargers())
	no := float64(len(sc.Devices))
	nh := float64(len(sc.Obstacles))
	c := 0.0
	for _, o := range sc.Obstacles {
		c = math.Max(c, float64(len(o.Shape.Vertices)))
	}
	if len(sc.Obstacles) == 0 {
		nh, c = 1, 1 // the bound's obstacle factor degenerates
	}
	return ns * math.Pow(no, 4) / (eps * eps) * nh * nh * c * c
}
