package expt

import (
	"math"
	"math/rand"

	"hipo/internal/baselines"
	"hipo/internal/core"
	"hipo/internal/model"
	"hipo/internal/power"
)

// RunConfig controls a figure regeneration run.
type RunConfig struct {
	// Runs is the number of random topologies averaged per data point (the
	// paper uses 100).
	Runs int
	// Seed is the base topology seed; run r uses Seed + r.
	Seed int64
	// Eps is the approximation parameter ε (default 0.15).
	Eps float64
	// Algorithms lists the algorithms to evaluate; empty means HIPO plus
	// all eight baselines.
	Algorithms []string
	// Workers bounds solver parallelism (0 = GOMAXPROCS).
	Workers int
}

func (rc RunConfig) withDefaults() RunConfig {
	if rc.Runs == 0 {
		rc.Runs = 10
	}
	if rc.Eps == 0 {
		rc.Eps = DefaultEps
	}
	if len(rc.Algorithms) == 0 {
		rc.Algorithms = append([]string{baselines.NameHIPO}, baselines.All()...)
	}
	return rc
}

func (rc RunConfig) coreOptions() core.Options {
	return core.Options{Eps: rc.Eps, Workers: rc.Workers}
}

func (rc RunConfig) eps1() float64 { return power.Eps1ForEps(rc.Eps) }

// runAlgorithm executes one algorithm on a scenario and returns its exact
// total charging utility. HIPO is deterministic; baselines use rng.
func (rc RunConfig) runAlgorithm(name string, sc *model.Scenario, rng *rand.Rand) float64 {
	if name == baselines.NameHIPO {
		sol, err := core.Solve(sc, rc.coreOptions())
		if err != nil {
			return 0
		}
		return sol.Utility
	}
	return power.TotalUtility(sc, baselines.Run(name, sc, rng, rc.eps1()))
}

// placementOf returns the placement an algorithm produces (used by the
// instance and CDF figures).
func (rc RunConfig) placementOf(name string, sc *model.Scenario, rng *rand.Rand) []model.Strategy {
	if name == baselines.NameHIPO {
		sol, err := core.Solve(sc, rc.coreOptions())
		if err != nil {
			return nil
		}
		return sol.Placed
	}
	return baselines.Run(name, sc, rng, rc.eps1())
}

// sweep evaluates all configured algorithms across xs, building each
// scenario via build(x, seed) and averaging utilities over rc.Runs
// topologies.
func (rc RunConfig) sweep(xs []float64, build func(x float64, seed int64) *model.Scenario) []Series {
	rc = rc.withDefaults()
	series := make([]Series, len(rc.Algorithms))
	for a, name := range rc.Algorithms {
		series[a] = Series{Label: name, X: xs,
			Y: make([]float64, len(xs)), Err: make([]float64, len(xs))}
	}
	for xi, x := range xs {
		acc := make([]Welford, len(rc.Algorithms))
		for r := 0; r < rc.Runs; r++ {
			seed := rc.Seed + int64(r)
			sc := build(x, seed)
			for a, name := range rc.Algorithms {
				rng := rand.New(rand.NewSource(seed*1000 + int64(a)))
				acc[a].Add(rc.runAlgorithm(name, sc, rng))
			}
		}
		for a := range acc {
			series[a].Y[xi] = acc[a].Mean()
			series[a].Err[xi] = acc[a].Std()
		}
	}
	return series
}

// RunNsSweep regenerates Figure 11(a): charging utility versus the number
// of chargers (1×–8× the initial setting). HIPO candidates are extracted
// once per topology and reused across budgets, mirroring that the candidate
// set of Section 4.2 is independent of N_s.
func RunNsSweep(rc RunConfig) Figure {
	rc = rc.withDefaults()
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	series := make([]Series, len(rc.Algorithms))
	for a, name := range rc.Algorithms {
		series[a] = Series{Label: name, X: xs, Y: make([]float64, len(xs))}
	}
	for r := 0; r < rc.Runs; r++ {
		seed := rc.Seed + int64(r)
		base := BuildScenario(Params{Seed: seed})
		cands, extractErr := core.ExtractCandidates(base, rc.coreOptions())
		for xi, x := range xs {
			sc := base.Clone()
			for q := range sc.ChargerTypes {
				sc.ChargerTypes[q].Count = initialChargerCounts[q] * int(x)
			}
			for a, name := range rc.Algorithms {
				if name == baselines.NameHIPO {
					if extractErr != nil {
						continue // a failed HIPO run counts as zero utility, as in runAlgorithm
					}
					sol, err := core.SelectFromCandidates(sc, cands, rc.coreOptions())
					if err == nil {
						series[a].Y[xi] += sol.Utility / float64(rc.Runs)
					}
					continue
				}
				rng := rand.New(rand.NewSource(seed*1000 + int64(a)))
				u := power.TotalUtility(sc, baselines.Run(name, sc, rng, rc.eps1()))
				series[a].Y[xi] += u / float64(rc.Runs)
			}
		}
	}
	return Figure{
		ID: "fig11a", Title: "Impact of number of chargers Ns",
		XLabel: "Number of Chargers (Times)", YLabel: "Charging Utility",
		Series: series,
	}
}

// RunNoSweep regenerates Figure 11(b): utility versus the number of devices
// (1×–8×).
func RunNoSweep(rc RunConfig) Figure {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	series := rc.sweep(xs, func(x float64, seed int64) *model.Scenario {
		return BuildScenario(Params{DeviceMult: int(x), Seed: seed})
	})
	return Figure{
		ID: "fig11b", Title: "Impact of number of devices No",
		XLabel: "Number of Devices (Times)", YLabel: "Charging Utility",
		Series: series,
	}
}

// RunAlphaSSweep regenerates Figure 11(c): utility versus charging angle
// scale (0.6×–2×).
func RunAlphaSSweep(rc RunConfig) Figure {
	xs := []float64{0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
	series := rc.sweep(xs, func(x float64, seed int64) *model.Scenario {
		return BuildScenario(Params{AlphaSScale: x, Seed: seed})
	})
	return Figure{
		ID: "fig11c", Title: "Impact of charging angle",
		XLabel: "Charging Angle (Times)", YLabel: "Charging Utility",
		Series: series,
	}
}

// RunAlphaOSweep regenerates Figure 11(d): utility versus receiving angle
// scale (0.6×–2×).
func RunAlphaOSweep(rc RunConfig) Figure {
	xs := []float64{0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
	series := rc.sweep(xs, func(x float64, seed int64) *model.Scenario {
		return BuildScenario(Params{AlphaOScale: x, Seed: seed})
	})
	return Figure{
		ID: "fig11d", Title: "Impact of receiving angle",
		XLabel: "Receiving Angle (Times)", YLabel: "Charging Utility",
		Series: series,
	}
}

// RunPthSweep regenerates Figure 11(e): utility versus power threshold
// (0.02–0.09).
func RunPthSweep(rc RunConfig) Figure {
	xs := []float64{0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09}
	series := rc.sweep(xs, func(x float64, seed int64) *model.Scenario {
		return BuildScenario(Params{Pth: x, Seed: seed})
	})
	return Figure{
		ID: "fig11e", Title: "Impact of power threshold",
		XLabel: "Power Threshold", YLabel: "Charging Utility",
		Series: series,
	}
}

// RunDminSweep regenerates Figure 11(f): utility versus nearest charging
// distance scale (0–1.4×).
func RunDminSweep(rc RunConfig) Figure {
	xs := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4}
	series := rc.sweep(xs, func(x float64, seed int64) *model.Scenario {
		scale := x
		if scale == 0 {
			scale = 1e-9 // a zero scale would mean "default" in Params
		}
		return BuildScenario(Params{DminScale: scale, Seed: seed})
	})
	return Figure{
		ID: "fig11f", Title: "Impact of nearest distance dmin",
		XLabel: "dmin (Times)", YLabel: "Charging Utility",
		Series: series,
	}
}

// RunPthLadder regenerates Figure 13: HIPO utility versus device multiple
// under per-type power-threshold ladders (offsets between adjacent device
// types of −0.01 … +0.01, holding type 2 at 0.05), with equalized device
// counts (2 per type).
func RunPthLadder(rc RunConfig) Figure {
	rc = rc.withDefaults()
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	deltas := []float64{-0.01, -0.005, 0, 0.005, 0.01}
	labels := []string{"-0.01", "-0.005", "0", "+0.005", "+0.01"}
	series := make([]Series, len(deltas))
	for di, delta := range deltas {
		series[di] = Series{Label: labels[di], X: xs, Y: make([]float64, len(xs))}
		// Type 2 (index 1) anchored at 0.05: offsets per type index t are
		// (t−1)·delta.
		offsets := make([]float64, 4)
		for t := range offsets {
			offsets[t] = float64(t-1) * delta
		}
		for xi, x := range xs {
			sum := 0.0
			for r := 0; r < rc.Runs; r++ {
				sc := BuildScenario(Params{
					DeviceMult:        int(x),
					EqualDeviceCounts: true,
					PthOffsets:        offsets,
					Seed:              rc.Seed + int64(r),
				})
				sol, err := core.Solve(sc, rc.coreOptions())
				if err == nil {
					sum += sol.Utility
				}
			}
			series[di].Y[xi] = sum / float64(rc.Runs)
		}
	}
	return Figure{
		ID: "fig13", Title: "Impact of different power thresholds",
		XLabel: "Number of Devices (Times)", YLabel: "Charging Utility",
		Series: series,
	}
}

// RunDminDmaxGrid regenerates Figure 14: HIPO utility over the grid of
// d_max scale (0.6–2×) × d_min/d_max ratio (0–0.9), with chargers at 2×
// the initial setting. One series per ratio, X = d_max scale.
func RunDminDmaxGrid(rc RunConfig) Figure {
	rc = rc.withDefaults()
	dmaxScales := []float64{0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
	ratios := []float64{1e-9, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	series := make([]Series, len(ratios))
	for ri, ratio := range ratios {
		series[ri] = Series{Label: ratioLabel(ratio), X: dmaxScales, Y: make([]float64, len(dmaxScales))}
		for xi, dm := range dmaxScales {
			sum := 0.0
			for r := 0; r < rc.Runs; r++ {
				sc := BuildScenario(Params{
					ChargerMult:  2,
					DmaxScale:    dm,
					DminOverDmax: ratio,
					Seed:         rc.Seed + int64(r),
				})
				sol, err := core.Solve(sc, rc.coreOptions())
				if err == nil {
					sum += sol.Utility
				}
			}
			series[ri].Y[xi] = sum / float64(rc.Runs)
		}
	}
	return Figure{
		ID: "fig14", Title: "Impact of dmin and dmax",
		XLabel: "dmax (Times)", YLabel: "Charging Utility",
		Series: series,
	}
}

func ratioLabel(r float64) string {
	if r < 1e-6 {
		return "dmin/dmax=0"
	}
	return "dmin/dmax=" + trimFloat(r)
}

func trimFloat(x float64) string {
	s := []byte{}
	v := int(math.Round(x * 10))
	s = append(s, '0', '.', byte('0'+v%10))
	return string(s)
}

// RunUtilityCDF regenerates Figure 15: the CDF of per-device charging
// utilities of all algorithms on one default 40-device topology.
func RunUtilityCDF(rc RunConfig) Figure {
	rc = rc.withDefaults()
	sc := BuildScenario(Params{Seed: rc.Seed})
	var series []Series
	for a, name := range rc.Algorithms {
		rng := rand.New(rand.NewSource(rc.Seed*1000 + int64(a)))
		placed := rc.placementOf(name, sc, rng)
		xs, ys := CDF(power.DeviceUtilities(sc, placed))
		series = append(series, Series{Label: name, X: xs, Y: ys})
	}
	return Figure{
		ID: "fig15", Title: "Charging utility CDF of different devices",
		XLabel: "Charging Utility", YLabel: "CDF",
		Series: series,
	}
}

// InstanceResult is the outcome of the Figure 10 single-instance study:
// utilities and placements for every algorithm on one fixed topology with
// chargers at 4× the initial setting.
type InstanceResult struct {
	Scenario   *model.Scenario
	Utilities  map[string]float64
	Placements map[string][]model.Strategy
}

// RunInstance regenerates Figure 10.
func RunInstance(rc RunConfig) InstanceResult {
	rc = rc.withDefaults()
	sc := BuildScenario(Params{ChargerMult: 4, Seed: rc.Seed})
	res := InstanceResult{
		Scenario:   sc,
		Utilities:  make(map[string]float64),
		Placements: make(map[string][]model.Strategy),
	}
	for a, name := range rc.Algorithms {
		rng := rand.New(rand.NewSource(rc.Seed*1000 + int64(a)))
		placed := rc.placementOf(name, sc, rng)
		res.Placements[name] = placed
		res.Utilities[name] = power.TotalUtility(sc, placed)
	}
	return res
}

// Summary aggregates the average percentage improvement of HIPO over each
// baseline across a set of figures (the paper's "outperforms by at least
// 33.49% on average" headline).
func Summary(figs []Figure) map[string]float64 {
	agg := make(map[string][]float64)
	for _, fig := range figs {
		hipo := fig.FindSeries(baselines.NameHIPO)
		if hipo == nil {
			continue
		}
		for _, s := range fig.Series {
			if s.Label == baselines.NameHIPO {
				continue
			}
			agg[s.Label] = append(agg[s.Label], ImprovementPercent(hipo.Y, s.Y))
		}
	}
	out := make(map[string]float64, len(agg))
	for name, vals := range agg {
		out[name] = Mean(vals)
	}
	return out
}
