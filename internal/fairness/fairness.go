// Package fairness implements the charging-utility balancing extensions of
// Section 8.3: max-min fairness (Eq. (15)) solved heuristically — the paper
// notes no efficient approximation exists — by simulated annealing over the
// PDCS candidate set and by particle swarm optimization over continuous
// strategies, plus proportional fairness (Eq. (16)), which stays a monotone
// submodular objective and is therefore solved by the same 1/2 − ε greedy
// as the base problem.
package fairness

import (
	"math"
	"math/rand"

	"hipo/internal/core"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/power"
	"hipo/internal/submodular"
)

// MinUtility returns the minimum device utility of a placement — the
// max-min objective value of Eq. (15).
func MinUtility(sc *model.Scenario, placed []model.Strategy) float64 {
	us := power.DeviceUtilities(sc, placed)
	if len(us) == 0 {
		return 0
	}
	mn := us[0]
	for _, u := range us[1:] {
		if u < mn {
			mn = u
		}
	}
	return mn
}

// maxMinObjective breaks ties on the minimum by mean utility so the search
// has gradient even while the minimum sits at zero.
func maxMinObjective(sc *model.Scenario, placed []model.Strategy) float64 {
	return MinUtility(sc, placed) + 1e-3*power.TotalUtility(sc, placed)
}

// SAOptions tunes the simulated annealing search.
type SAOptions struct {
	Iterations int     // annealing steps (default 2000)
	T0         float64 // initial temperature (default 0.1)
	Cooling    float64 // geometric cooling factor per step (default 0.999)
	Seed       int64
}

// DefaultSAOptions returns sensible defaults for the scenario sizes of the
// paper's simulations.
func DefaultSAOptions() SAOptions {
	return SAOptions{Iterations: 2000, T0: 0.1, Cooling: 0.999, Seed: 1}
}

// MaxMinSA maximizes the minimum device utility by simulated annealing over
// the PDCS candidate strategy set: the state is one candidate per charger
// slot, and a move swaps one slot for a random same-type candidate. The
// greedy HIPO solution seeds the search.
func MaxMinSA(sc *model.Scenario, opt core.Options, sa SAOptions) ([]model.Strategy, float64, error) {
	cands, err := core.ExtractCandidates(sc, opt)
	if err != nil {
		return nil, 0, err
	}
	sol, err := core.SelectFromCandidates(sc, cands, opt)
	if err != nil {
		return nil, 0, err
	}
	if sa.Iterations <= 0 {
		sa = DefaultSAOptions()
	}
	rng := rand.New(rand.NewSource(sa.Seed))

	// Slots: per charger type, Count entries holding candidate indices (or
	// -1 for empty when there are fewer candidates than slots).
	type slot struct{ q, cand int }
	var slots []slot
	// Seed with the greedy solution by locating each placed strategy among
	// the candidates.
	used := make(map[[2]int]bool)
	for _, s := range sol.Placed {
		for ci, c := range cands[s.Type] {
			if used[[2]int{s.Type, ci}] {
				continue
			}
			if c.S.Pos.Eq(s.Pos) && geom.AbsAngleDiff(c.S.Orient, s.Orient) <= 1e-9 {
				slots = append(slots, slot{s.Type, ci})
				used[[2]int{s.Type, ci}] = true
				break
			}
		}
	}
	// Fill remaining budget with random candidates.
	for q, ct := range sc.ChargerTypes {
		have := 0
		for _, sl := range slots {
			if sl.q == q {
				have++
			}
		}
		for k := have; k < ct.Count && len(cands[q]) > 0; k++ {
			slots = append(slots, slot{q, rng.Intn(len(cands[q]))})
		}
	}
	assemble := func() []model.Strategy {
		out := make([]model.Strategy, len(slots))
		for i, sl := range slots {
			out[i] = cands[sl.q][sl.cand].S
		}
		return out
	}
	cur := assemble()
	curVal := maxMinObjective(sc, cur)
	best := append([]model.Strategy(nil), cur...)
	bestVal := curVal

	temp := sa.T0
	for it := 0; it < sa.Iterations && len(slots) > 0; it++ {
		i := rng.Intn(len(slots))
		q := slots[i].q
		if len(cands[q]) < 2 {
			continue
		}
		old := slots[i].cand
		slots[i].cand = rng.Intn(len(cands[q]))
		nxt := assemble()
		nxtVal := maxMinObjective(sc, nxt)
		if nxtVal >= curVal || rng.Float64() < math.Exp((nxtVal-curVal)/math.Max(temp, 1e-12)) {
			cur, curVal = nxt, nxtVal
			if curVal > bestVal {
				best = append(best[:0:0], cur...)
				bestVal = curVal
			}
		} else {
			slots[i].cand = old
		}
		temp *= sa.Cooling
	}
	return best, MinUtility(sc, best), nil
}

// PSOOptions tunes the particle swarm search.
type PSOOptions struct {
	Particles  int     // swarm size (default 20)
	Iterations int     // velocity updates (default 150)
	Inertia    float64 // w (default 0.7)
	Cognitive  float64 // c1 (default 1.5)
	Social     float64 // c2 (default 1.5)
	Seed       int64
}

// DefaultPSOOptions returns standard PSO coefficients.
func DefaultPSOOptions() PSOOptions {
	return PSOOptions{Particles: 20, Iterations: 150, Inertia: 0.7, Cognitive: 1.5, Social: 1.5, Seed: 1}
}

// MaxMinPSO maximizes the minimum device utility by particle swarm
// optimization over the continuous strategy space: each particle encodes
// (x, y, φ) for every charger slot. Infeasible positions (inside obstacles)
// are clamped by resampling. Returns the best placement found.
func MaxMinPSO(sc *model.Scenario, pso PSOOptions) ([]model.Strategy, float64) {
	if pso.Particles <= 0 {
		pso = DefaultPSOOptions()
	}
	rng := rand.New(rand.NewSource(pso.Seed))

	// Slot layout: one (x, y, phi) triple per charger.
	var types []int
	for q, ct := range sc.ChargerTypes {
		for k := 0; k < ct.Count; k++ {
			types = append(types, q)
		}
	}
	dim := len(types) * 3
	if dim == 0 {
		return nil, 0
	}
	lo := []float64{sc.Region.Min.X, sc.Region.Min.Y, 0}
	hi := []float64{sc.Region.Max.X, sc.Region.Max.Y, 2 * math.Pi}

	decode := func(x []float64) []model.Strategy {
		out := make([]model.Strategy, len(types))
		for i, q := range types {
			out[i] = model.Strategy{
				Pos:    geom.V(x[3*i], x[3*i+1]),
				Orient: geom.NormAngle(x[3*i+2]),
				Type:   q,
			}
		}
		return out
	}
	evaluate := func(x []float64) float64 {
		placed := decode(x)
		for _, s := range placed {
			if !sc.FeasiblePosition(s.Pos) {
				return -1 // hard penalty
			}
		}
		return maxMinObjective(sc, placed)
	}
	sample := func() []float64 {
		x := make([]float64, dim)
		for i := 0; i < len(types); i++ {
			for {
				px := lo[0] + rng.Float64()*(hi[0]-lo[0])
				py := lo[1] + rng.Float64()*(hi[1]-lo[1])
				if sc.FeasiblePosition(geom.V(px, py)) {
					x[3*i], x[3*i+1] = px, py
					break
				}
			}
			x[3*i+2] = rng.Float64() * 2 * math.Pi
		}
		return x
	}

	pos := make([][]float64, pso.Particles)
	vel := make([][]float64, pso.Particles)
	pbest := make([][]float64, pso.Particles)
	pbestVal := make([]float64, pso.Particles)
	var gbest []float64
	gbestVal := math.Inf(-1)
	for p := range pos {
		pos[p] = sample()
		vel[p] = make([]float64, dim)
		pbest[p] = append([]float64(nil), pos[p]...)
		pbestVal[p] = evaluate(pos[p])
		if pbestVal[p] > gbestVal {
			gbestVal = pbestVal[p]
			gbest = append([]float64(nil), pos[p]...)
		}
	}
	for it := 0; it < pso.Iterations; it++ {
		for p := range pos {
			for d := 0; d < dim; d++ {
				r1, r2 := rng.Float64(), rng.Float64()
				vel[p][d] = pso.Inertia*vel[p][d] +
					pso.Cognitive*r1*(pbest[p][d]-pos[p][d]) +
					pso.Social*r2*(gbest[d]-pos[p][d])
				pos[p][d] += vel[p][d]
			}
			// Clamp coordinates into the region box.
			for i := 0; i < len(types); i++ {
				pos[p][3*i] = clamp(pos[p][3*i], lo[0], hi[0])
				pos[p][3*i+1] = clamp(pos[p][3*i+1], lo[1], hi[1])
			}
			v := evaluate(pos[p])
			if v > pbestVal[p] {
				pbestVal[p] = v
				copy(pbest[p], pos[p])
				if v > gbestVal {
					gbestVal = v
					copy(gbest, pos[p])
				}
			}
		}
	}
	placed := decode(gbest)
	return placed, MinUtility(sc, placed)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ProportionalFair solves the proportional-fairness HIPO of Eq. (16):
// maximize Σ log(1 + U_j) — still monotone submodular after PDCS extraction
// (the paper's observation), so the standard greedy applies with the same
// 1/2 − ε guarantee.
func ProportionalFair(sc *model.Scenario, opt core.Options) (*core.Solution, error) {
	opt.Objective = func(sc *model.Scenario, j int) submodular.Scalar {
		return submodular.LogUtilityPhi(sc.DeviceTypes[sc.Devices[j].Type].PTh)
	}
	return core.Solve(sc, opt)
}

// JainIndex returns Jain's fairness index of the per-device utilities:
// (Σu)² / (n·Σu²), 1 when perfectly balanced. Used by fairness benchmarks.
func JainIndex(us []float64) float64 {
	if len(us) == 0 {
		return 1
	}
	sum, sq := 0.0, 0.0
	for _, u := range us {
		sum += u
		sq += u * u
	}
	if sq <= 0 {
		return 1
	}
	return sum * sum / (float64(len(us)) * sq)
}
