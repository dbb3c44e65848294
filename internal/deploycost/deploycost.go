package deploycost

import (
	"math"

	"hipo/internal/core"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/submodular"
)

// CostModel is the deployment-cost function of Section 8.2,
// c(S) = Σ f_d(d_i) + f_θ(θ_i) + f_P(P_i): monotone increasing functions of
// travel distance from the depot, rotation angle from a reference
// orientation, and working charging power of the charger type.
type CostModel struct {
	Depot geom.Vec
	// RefOrient is the orientation chargers leave the depot with.
	RefOrient float64
	// FD, FTheta, FP are the three monotone cost curves. Nil means zero.
	FD     func(d float64) float64
	FTheta func(theta float64) float64
	FP     func(p float64) float64
	// TypePower[q] is the working power P_i of charger type q fed to FP.
	TypePower []float64
}

// LinearCostModel builds the common linear instantiation: cost =
// wd·distance + wt·rotation + wp·power.
func LinearCostModel(depot geom.Vec, wd, wt, wp float64, typePower []float64) CostModel {
	return CostModel{
		Depot:     depot,
		FD:        func(d float64) float64 { return wd * d },
		FTheta:    func(th float64) float64 { return wt * th },
		FP:        func(p float64) float64 { return wp * p },
		TypePower: typePower,
	}
}

// StrategyCost returns the deployment cost of a single strategy.
func (cm CostModel) StrategyCost(s model.Strategy) float64 {
	c := 0.0
	if cm.FD != nil {
		c += cm.FD(cm.Depot.Dist(s.Pos))
	}
	if cm.FTheta != nil {
		c += cm.FTheta(geom.AbsAngleDiff(cm.RefOrient, s.Orient))
	}
	if cm.FP != nil {
		p := 0.0
		if s.Type < len(cm.TypePower) {
			p = cm.TypePower[s.Type]
		}
		c += cm.FP(p)
	}
	return c
}

// PlacementCost returns the straight per-charger cost sum of a placement.
func (cm CostModel) PlacementCost(placed []model.Strategy) float64 {
	total := 0.0
	for _, s := range placed {
		total += cm.StrategyCost(s)
	}
	return total
}

// TourCost estimates the travel component as a single cart tour from the
// depot through all placements (the m=1 TSP formulation the paper
// mentions), plus the rotation and power components per charger.
func (cm CostModel) TourCost(placed []model.Strategy) float64 {
	pts := make([]geom.Vec, len(placed))
	for i, s := range placed {
		pts[i] = s.Pos
	}
	_, length := Tour(cm.Depot, pts)
	total := 0.0
	if cm.FD != nil {
		total += cm.FD(length)
	}
	for _, s := range placed {
		if cm.FTheta != nil {
			total += cm.FTheta(geom.AbsAngleDiff(cm.RefOrient, s.Orient))
		}
		if cm.FP != nil && s.Type < len(cm.TypePower) {
			total += cm.FP(cm.TypePower[s.Type])
		}
	}
	return total
}

// Result is a budget-constrained placement.
type Result struct {
	Placed  []model.Strategy
	Utility float64 // objective value (normalized charging utility)
	Cost    float64 // per-charger deployment cost spent
}

// SolveBudgeted maximizes charging utility subject to c(S) ≤ budget: PDCS
// extraction exactly as in the unconstrained solver, then the cost-benefit
// greedy of internal/submodular (the practical stand-in for the
// routing-constrained algorithm of the paper's reference [46], which
// achieves ½(1−1/e)). Per-type cardinalities become soft under the budget:
// the budget is the binding constraint, matching the formulation in
// Section 8.2.
func SolveBudgeted(sc *model.Scenario, cm CostModel, budget float64, opt core.Options) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cands, err := core.ExtractCandidates(sc, opt)
	if err != nil {
		return nil, err
	}
	inst, flat := core.BuildInstance(sc, cands, opt)
	cost := make([]float64, len(flat))
	for i, c := range flat {
		cost[i] = cm.StrategyCost(c.S)
	}
	res := submodular.BudgetedGreedy(inst, cost, budget)
	out := &Result{}
	for _, e := range res.Selected {
		out.Placed = append(out.Placed, flat[e].S)
		out.Cost += cost[e]
	}
	out.Utility = res.Value
	return out, nil
}

// CheapestFeasible returns the minimum budget at which any strategy is
// affordable, useful for sweeping budgets in experiments.
func CheapestFeasible(cands [][]pdcs.Candidate, cm CostModel) float64 {
	best := math.Inf(1)
	for _, group := range cands {
		for _, c := range group {
			if v := cm.StrategyCost(c.S); v < best {
				best = v
			}
		}
	}
	return best
}
