// Package redeploy implements the charger redeployment problems of Section
// 8.1: when the device topology changes and HIPO produces a new placement,
// match old charger positions to new ones per charger type so as to
// minimize either the overall switching overhead (weighted bipartite perfect
// matching, solved by the Hungarian algorithm) or the maximum per-charger
// overhead followed by total overhead (bottleneck matching via binary
// search with Hall-feasibility checks, then Hungarian on the thresholded
// graph).
//
// Unequal per-type counts — a scenario mutation can change how many
// chargers of a type get bought — are handled by padding the cost matrix to
// a square: surplus new strategies match against virtual "install" sources
// at CostModel.PerInstall apiece, surplus old strategies match against
// virtual "decommission" sinks at CostModel.PerDecommission. Because every
// virtual row (column) carries one flat cost toward every real column
// (row), the padding changes neither which real pairs the matching prefers
// nor the optimal assignment among them; it only accounts for the
// unavoidable installs/decommissions explicitly in the plan.
package redeploy

import (
	"fmt"

	"hipo/internal/geom"
	"hipo/internal/matching"
	"hipo/internal/model"
)

// MoveKind classifies a plan entry.
type MoveKind string

const (
	// KindMove is an existing charger transitioning between strategies.
	KindMove MoveKind = ""
	// KindInstall is a charger present only in the new placement: From is
	// meaningless (set equal to To) and the cost is CostModel.PerInstall.
	KindInstall MoveKind = "install"
	// KindDecommission is a charger present only in the old placement: To is
	// meaningless (set equal to From) and the cost is
	// CostModel.PerDecommission.
	KindDecommission MoveKind = "decommission"
)

// CostModel weighs the components of switching overhead: moving a charger,
// rotating it, and standing one up or retiring it.
type CostModel struct {
	// PerMeter is the cost per unit travel distance.
	PerMeter float64
	// PerRadian is the cost per radian of rotation (smallest rotation).
	PerRadian float64
	// PerInstall is the flat cost of deploying a charger that has no old
	// counterpart (new count exceeds old count for its type).
	PerInstall float64
	// PerDecommission is the flat cost of retiring a charger that has no
	// new counterpart (old count exceeds new count for its type).
	PerDecommission float64
}

// DefaultCostModel weighs a meter of travel like a radian of rotation;
// installs and decommissions are free unless priced explicitly.
func DefaultCostModel() CostModel { return CostModel{PerMeter: 1, PerRadian: 1} }

// Cost returns the switching overhead of transforming strategy a into b.
func (cm CostModel) Cost(a, b model.Strategy) float64 {
	return cm.PerMeter*a.Pos.Dist(b.Pos) + cm.PerRadian*geom.AbsAngleDiff(a.Orient, b.Orient)
}

// Move describes one charger's transition from an old strategy to a new
// one, or an install/decommission when the per-type counts differ.
type Move struct {
	From, To model.Strategy
	Cost     float64
	Kind     MoveKind
}

// Plan is a complete redeployment: one move per charger.
type Plan struct {
	Moves []Move
	// Total is the summed switching overhead.
	Total float64
	// Max is the largest single-charger overhead.
	Max float64
}

// groupByType partitions strategies by charger type, preserving order.
func groupByType(ss []model.Strategy, nTypes int) [][]model.Strategy {
	out := make([][]model.Strategy, nTypes)
	for _, s := range ss {
		out[s.Type] = append(out[s.Type], s)
	}
	return out
}

// MinTotal computes the redeployment plan minimizing the overall switching
// overhead (Section 8.1.1): per charger type, a minimum-cost matching
// between old and new strategies, padded with installs/decommissions when
// the counts differ. Every strategy's type must be in [0, nTypes), as
// model.Scenario.ValidatePlacement checks for a scenario with nTypes
// charger types.
func MinTotal(old, new_ []model.Strategy, nTypes int, cm CostModel) (*Plan, error) {
	return solve(old, new_, nTypes, cm, false)
}

// MinMax computes the plan minimizing the maximum per-charger overhead and,
// among those, the total overhead (Section 8.1.2).
func MinMax(old, new_ []model.Strategy, nTypes int, cm CostModel) (*Plan, error) {
	return solve(old, new_, nTypes, cm, true)
}

func solve(old, new_ []model.Strategy, nTypes int, cm CostModel, bottleneck bool) (*Plan, error) {
	og := groupByType(old, nTypes)
	ng := groupByType(new_, nTypes)
	plan := &Plan{}
	for q := 0; q < nTypes; q++ {
		nOld, nNew := len(og[q]), len(ng[q])
		n := max(nOld, nNew)
		if n == 0 {
			continue
		}
		// Square cost matrix: rows past nOld are virtual install sources,
		// columns past nNew are virtual decommission sinks. A virtual row
		// meeting a virtual column is a no-op pairing at zero cost.
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				switch {
				case i < nOld && j < nNew:
					cost[i][j] = cm.Cost(og[q][i], ng[q][j])
				case i < nOld: // real old, virtual sink
					cost[i][j] = cm.PerDecommission
				case j < nNew: // virtual source, real new
					cost[i][j] = cm.PerInstall
				}
			}
		}
		var assign []int
		var err error
		if bottleneck {
			assign, _, _, err = matching.Bottleneck(cost)
		} else {
			assign, _, err = matching.Hungarian(cost)
		}
		if err != nil {
			return nil, fmt.Errorf("redeploy: type %d: %w", q, err)
		}
		for i, j := range assign {
			var mv Move
			switch {
			case i < nOld && j < nNew:
				mv = Move{From: og[q][i], To: ng[q][j], Cost: cost[i][j]}
			case i < nOld:
				mv = Move{From: og[q][i], To: og[q][i], Cost: cost[i][j], Kind: KindDecommission}
			case j < nNew:
				mv = Move{From: ng[q][j], To: ng[q][j], Cost: cost[i][j], Kind: KindInstall}
			default:
				continue // virtual-virtual pairing: not a charger
			}
			plan.Moves = append(plan.Moves, mv)
			plan.Total += mv.Cost
			if mv.Cost > plan.Max {
				plan.Max = mv.Cost
			}
		}
	}
	return plan, nil
}
