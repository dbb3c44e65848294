// Package baselines implements the eight comparison algorithms of Section
// 6: Randomized Position with Angular Randomization/Discretization (RPAR,
// RPAD), Grid Point with Angular Randomization/Discretization (GPAR, GPAD)
// on square and triangular grids, and Grid Point with PDCS point-case
// extraction (GPPDCS) on both grids. Grid spacing is √2/2 · d_max per
// charger type, as in the paper.
package baselines

import (
	"math"
	"math/rand"

	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/power"
	"hipo/internal/submodular"
)

// Grid selects the grid layout for the grid-point algorithms.
type Grid int

const (
	// Square is the square lattice with spacing √2/2·d_max.
	Square Grid = iota
	// Triangle is the equilateral triangular lattice with the same spacing.
	Triangle
)

// Name strings used in experiment reports, matching the paper's legends.
const (
	NameRPAR           = "RPAR"
	NameRPAD           = "RPAD"
	NameGPARSquare     = "GPAR Square"
	NameGPARTriangle   = "GPAR Triangle"
	NameGPADSquare     = "GPAD Square"
	NameGPADTriangle   = "GPAD Triangle"
	NameGPPDCSSquare   = "GPPDCS Square"
	NameGPPDCSTriangle = "GPPDCS Triangle"
	NameHIPO           = "HIPO"
)

// All lists the baseline names in the paper's strongest-to-weakest order.
func All() []string {
	return []string{
		NameGPPDCSTriangle, NameGPPDCSSquare,
		NameGPADTriangle, NameGPADSquare,
		NameGPARTriangle, NameGPARSquare,
		NameRPAD, NameRPAR,
	}
}

// Run executes the named baseline on the scenario with the given PRNG and
// returns the placed strategies. eps1 parameterizes the PDCS point-case
// sweep used by GPPDCS.
func Run(name string, sc *model.Scenario, rng *rand.Rand, eps1 float64) []model.Strategy {
	switch name {
	case NameRPAR:
		return RPAR(sc, rng)
	case NameRPAD:
		return RPAD(sc, rng)
	case NameGPARSquare:
		return GPAR(sc, rng, Square)
	case NameGPARTriangle:
		return GPAR(sc, rng, Triangle)
	case NameGPADSquare:
		return GPAD(sc, Square)
	case NameGPADTriangle:
		return GPAD(sc, Triangle)
	case NameGPPDCSSquare:
		return GPPDCS(sc, Square, eps1)
	case NameGPPDCSTriangle:
		return GPPDCS(sc, Triangle, eps1)
	default:
		panic("baselines: unknown algorithm " + name)
	}
}

// RPAR places every charger at a uniformly random feasible position with a
// uniformly random orientation.
func RPAR(sc *model.Scenario, rng *rand.Rand) []model.Strategy {
	var out []model.Strategy
	for q, ct := range sc.ChargerTypes {
		for k := 0; k < ct.Count; k++ {
			out = append(out, model.Strategy{
				Pos:    randomFeasible(sc, rng),
				Orient: rng.Float64() * 2 * math.Pi,
				Type:   q,
			})
		}
	}
	return out
}

// RPAD draws random feasible positions like RPAR but, at each position,
// enumerates the orientations {0, α_s, 2α_s, …} and greedily keeps the one
// with the largest utility increment given the chargers placed so far.
func RPAD(sc *model.Scenario, rng *rand.Rand) []model.Strategy {
	var out []model.Strategy
	for q, ct := range sc.ChargerTypes {
		for k := 0; k < ct.Count; k++ {
			pos := randomFeasible(sc, rng)
			best := model.Strategy{Pos: pos, Orient: 0, Type: q}
			bestGain := -1.0
			base := power.TotalUtility(sc, out)
			for _, phi := range discreteOrients(ct.Alpha) {
				s := model.Strategy{Pos: pos, Orient: phi, Type: q}
				gain := power.TotalUtility(sc, append(out, s)) - base
				if gain > bestGain {
					best, bestGain = s, gain
				}
			}
			out = append(out, best)
		}
	}
	return out
}

// GPAR builds the per-type grid and greedily selects grid points, but with
// a random orientation attached to every grid point (positions are chosen
// well, orientations are not).
func GPAR(sc *model.Scenario, rng *rand.Rand, g Grid) []model.Strategy {
	return greedyOverGrid(sc, g, func(sc *model.Scenario, q int, pts []geom.Vec) []model.Strategy {
		var out []model.Strategy
		for _, p := range pts {
			out = append(out, model.Strategy{Pos: p, Orient: rng.Float64() * 2 * math.Pi, Type: q})
		}
		return out
	})
}

// GPAD builds the per-type grid and considers every discretized orientation
// {0, α_s, 2α_s, …} at every grid point, selecting greedily.
func GPAD(sc *model.Scenario, g Grid) []model.Strategy {
	return greedyOverGrid(sc, g, func(sc *model.Scenario, q int, pts []geom.Vec) []model.Strategy {
		var out []model.Strategy
		for _, p := range pts {
			for _, phi := range discreteOrients(sc.ChargerTypes[q].Alpha) {
				out = append(out, model.Strategy{Pos: p, Orient: phi, Type: q})
			}
		}
		return out
	})
}

// GPPDCS replaces GPAD's orientation enumeration with the PDCS point-case
// extraction (Algorithm 1) at every grid point: orientations are exactly the
// dominating ones. The grid is swept through pdcs.ExtractAt with the global
// dominance filter off, so each point keeps its own coverage sets.
func GPPDCS(sc *model.Scenario, g Grid, eps1 float64) []model.Strategy {
	return greedyOverGrid(sc, g, func(sc *model.Scenario, q int, pts []geom.Vec) []model.Strategy {
		var out []model.Strategy
		for _, c := range GPPDCSCandidates(sc, q, pts, eps1) {
			out = append(out, c.S)
		}
		return out
	})
}

// GPPDCSCandidates runs Algorithm 1 at every grid point of charger type q
// and returns the per-point candidates in point order.
func GPPDCSCandidates(sc *model.Scenario, q int, pts []geom.Vec, eps1 float64) []pdcs.Candidate {
	return pdcs.ExtractAt(sc, q, pts, pdcs.Config{Eps1: eps1, SkipDominanceFilter: true})
}

// greedyOverGrid generates candidate strategies over the grid points of
// each charger type using gen, then greedily selects within the per-type
// budgets using the exact utility objective via a submodular instance built
// from exact powers.
func greedyOverGrid(sc *model.Scenario, g Grid, gen func(sc *model.Scenario, q int, pts []geom.Vec) []model.Strategy) []model.Strategy {
	inst := &submodular.Instance{
		Phi:         make([]submodular.Scalar, len(sc.Devices)),
		Weight:      make([]float64, len(sc.Devices)),
		Budget:      make([]int, len(sc.ChargerTypes)),
		AllowRepeat: true, // stacking chargers on one grid strategy is legal
	}
	for j := range sc.Devices {
		inst.Phi[j] = submodular.UtilityPhi(sc.DeviceTypes[sc.Devices[j].Type].PTh)
		inst.Weight[j] = 1 / float64(len(sc.Devices))
	}
	var flat []model.Strategy
	for q, ct := range sc.ChargerTypes {
		inst.Budget[q] = ct.Count
		for _, s := range gen(sc, q, GridPoints(sc, q, g)) {
			el := submodular.Element{Part: q}
			for j := range sc.Devices {
				if pw := power.Exact(sc, s, j); pw > 0 {
					el.Covers = append(el.Covers, submodular.Entry{Device: j, Power: pw})
				}
			}
			inst.Elements = append(inst.Elements, el)
			flat = append(flat, s)
		}
	}
	res := submodular.GreedyLazy(inst)
	out := make([]model.Strategy, 0, len(res.Selected))
	for _, e := range res.Selected {
		out = append(out, flat[e])
	}
	return out
}

// GridPoints returns the feasible grid points for charger type q under the
// chosen lattice, spacing √2/2 · d_max.
func GridPoints(sc *model.Scenario, q int, g Grid) []geom.Vec {
	spacing := math.Sqrt2 / 2 * sc.ChargerTypes[q].DMax
	var out []geom.Vec
	switch g {
	case Square:
		for x := sc.Region.Min.X; x <= sc.Region.Max.X+geom.Eps; x += spacing {
			for y := sc.Region.Min.Y; y <= sc.Region.Max.Y+geom.Eps; y += spacing {
				p := geom.V(x, y)
				if sc.FeasiblePosition(p) {
					out = append(out, p)
				}
			}
		}
	case Triangle:
		rowHeight := spacing * math.Sqrt(3) / 2
		row := 0
		for y := sc.Region.Min.Y; y <= sc.Region.Max.Y+geom.Eps; y += rowHeight {
			offset := 0.0
			if row%2 == 1 {
				offset = spacing / 2
			}
			for x := sc.Region.Min.X + offset; x <= sc.Region.Max.X+geom.Eps; x += spacing {
				p := geom.V(x, y)
				if sc.FeasiblePosition(p) {
					out = append(out, p)
				}
			}
			row++
		}
	}
	return out
}

// discreteOrients returns {0, α, 2α, …} up to ⌈2π/α⌉ values, the RPAD/GPAD
// orientation set.
func discreteOrients(alpha float64) []float64 {
	n := int(math.Ceil(2 * math.Pi / alpha))
	if n < 1 {
		n = 1
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, geom.NormAngle(float64(i)*alpha))
	}
	return out
}

// randomFeasible rejection-samples a feasible position, mirroring the
// paper's "repeat the process until a feasible position is obtained".
func randomFeasible(sc *model.Scenario, rng *rand.Rand) geom.Vec {
	for {
		p := geom.V(
			sc.Region.Min.X+rng.Float64()*sc.Region.Width(),
			sc.Region.Min.Y+rng.Float64()*sc.Region.Height(),
		)
		if sc.FeasiblePosition(p) {
			return p
		}
	}
}
