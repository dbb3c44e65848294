package fairness

import (
	"math"
	"math/rand"

	"hipo/internal/core"
	"hipo/internal/model"
)

// ACOOptions tunes the ant-colony search for max-min fairness (Section 8.3
// lists Ant Colony Optimization among the applicable heuristics).
type ACOOptions struct {
	Ants        int     // ants per iteration (default 12)
	Iterations  int     // colony iterations (default 60)
	Evaporation float64 // pheromone evaporation rate ρ ∈ (0,1) (default 0.3)
	Alpha       float64 // pheromone exponent (default 1)
	Beta        float64 // heuristic exponent (default 2)
	Seed        int64
}

// DefaultACOOptions returns standard MAX-MIN-ish colony parameters sized
// for the paper's scenario scales.
func DefaultACOOptions() ACOOptions {
	return ACOOptions{Ants: 12, Iterations: 60, Evaporation: 0.3, Alpha: 1, Beta: 2, Seed: 1}
}

// MaxMinACO maximizes the minimum device utility with an ant colony over
// the PDCS candidate strategy set: each charger slot is a decision point
// whose alternatives are the same-type candidates; pheromone accumulates on
// (slot, candidate) pairs proportional to the max-min objective of the best
// ant per iteration. The heuristic visibility of a candidate is its total
// delivered power, which biases ants toward useful strategies before
// pheromone differentiates.
func MaxMinACO(sc *model.Scenario, opt core.Options, aco ACOOptions) ([]model.Strategy, float64, error) {
	cands, err := core.ExtractCandidates(sc, opt)
	if err != nil {
		return nil, 0, err
	}
	if aco.Ants <= 0 {
		aco = DefaultACOOptions()
	}
	rng := rand.New(rand.NewSource(aco.Seed))

	// Slots: one per charger, listing its charger type.
	var slotType []int
	for q, ct := range sc.ChargerTypes {
		if len(cands[q]) == 0 {
			continue // no candidate of this type: slot cannot be filled
		}
		for k := 0; k < ct.Count; k++ {
			slotType = append(slotType, q)
		}
	}
	if len(slotType) == 0 {
		return nil, 0, nil
	}

	// Pheromone and heuristic per (slot, candidate-of-that-type).
	tau := make([][]float64, len(slotType))
	eta := make([][]float64, len(slotType))
	for s, q := range slotType {
		tau[s] = make([]float64, len(cands[q]))
		eta[s] = make([]float64, len(cands[q]))
		for c := range cands[q] {
			tau[s][c] = 1
			eta[s][c] = cands[q][c].TotalPower() + 1e-9
		}
	}

	pick := func(s int) int {
		q := slotType[s]
		weights := make([]float64, len(cands[q]))
		total := 0.0
		for c := range weights {
			w := math.Pow(tau[s][c], aco.Alpha) * math.Pow(eta[s][c], aco.Beta)
			weights[c] = w
			total += w
		}
		r := rng.Float64() * total
		for c, w := range weights {
			r -= w
			if r <= 0 {
				return c
			}
		}
		return len(weights) - 1
	}

	assemble := func(choice []int) []model.Strategy {
		out := make([]model.Strategy, len(choice))
		for s, c := range choice {
			out[s] = cands[slotType[s]][c].S
		}
		return out
	}

	var bestChoice []int
	bestVal := math.Inf(-1)
	for it := 0; it < aco.Iterations; it++ {
		var iterBest []int
		iterVal := math.Inf(-1)
		for a := 0; a < aco.Ants; a++ {
			choice := make([]int, len(slotType))
			for s := range choice {
				choice[s] = pick(s)
			}
			v := maxMinObjective(sc, assemble(choice))
			if v > iterVal {
				iterVal, iterBest = v, choice
			}
		}
		if iterVal > bestVal {
			bestVal = iterVal
			bestChoice = append(bestChoice[:0:0], iterBest...)
		}
		// Evaporate, then deposit on the global best trail (elitist rule).
		for s := range tau {
			for c := range tau[s] {
				tau[s][c] *= 1 - aco.Evaporation
				if tau[s][c] < 1e-6 {
					tau[s][c] = 1e-6
				}
			}
		}
		for s, c := range bestChoice {
			tau[s][c] += bestVal + 1e-3
		}
	}
	placed := assemble(bestChoice)
	return placed, MinUtility(sc, placed), nil
}
