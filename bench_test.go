package hipo

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Sections 6–7), each regenerating the corresponding series at
// reduced averaging (Runs=1; use cmd/hipoexp -runs 100 for paper-fidelity
// numbers) and reporting the headline quantities via b.ReportMetric, plus
// ablation benchmarks for the design choices called out in DESIGN.md and
// micro-benchmarks of the hot paths.

import (
	"math/rand"
	"testing"
	"time"

	"hipo/internal/baselines"
	"hipo/internal/cells"
	"hipo/internal/core"
	"hipo/internal/discretize"
	"hipo/internal/expt"
	"hipo/internal/field"
	"hipo/internal/geom"
	"hipo/internal/pdcs"
	"hipo/internal/power"
	"hipo/internal/radial"
	"hipo/internal/schedule"
	"hipo/internal/submodular"
	"hipo/internal/visindex"
)

func benchRC() expt.RunConfig {
	return expt.RunConfig{Runs: 1, Seed: 1, Eps: 0.15}
}

// reportHIPOvsBest reports HIPO's mean utility and its mean improvement
// over the strongest baseline in the figure.
func reportHIPOvsBest(b *testing.B, fig expt.Figure) {
	b.Helper()
	hipoSeries := fig.FindSeries(baselines.NameHIPO)
	if hipoSeries == nil {
		return
	}
	b.ReportMetric(expt.Mean(hipoSeries.Y), "hipo-utility")
	best := fig.FindSeries(baselines.NameGPPDCSTriangle)
	if best != nil {
		b.ReportMetric(expt.ImprovementPercent(hipoSeries.Y, best.Y), "pct-vs-gppdcs-t")
	}
}

// BenchmarkFig10Instance regenerates the Figure 10 single-instance study:
// all nine algorithms on one topology with chargers at 4× the initial
// setting. Paper: HIPO 0.8495 vs 0.1000–0.6932 for the baselines.
func BenchmarkFig10Instance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := expt.RunInstance(benchRC())
		b.ReportMetric(res.Utilities[baselines.NameHIPO], "hipo-utility")
		b.ReportMetric(res.Utilities[baselines.NameGPPDCSTriangle], "gppdcs-t-utility")
		b.ReportMetric(res.Utilities[baselines.NameRPAR], "rpar-utility")
	}
}

// BenchmarkFig11aChargers regenerates Figure 11(a): utility vs N_s.
func BenchmarkFig11aChargers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportHIPOvsBest(b, expt.RunNsSweep(benchRC()))
	}
}

// BenchmarkFig11bDevices regenerates Figure 11(b): utility vs N_o.
func BenchmarkFig11bDevices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportHIPOvsBest(b, expt.RunNoSweep(benchRC()))
	}
}

// BenchmarkFig11cChargingAngle regenerates Figure 11(c): utility vs α_s.
func BenchmarkFig11cChargingAngle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportHIPOvsBest(b, expt.RunAlphaSSweep(benchRC()))
	}
}

// BenchmarkFig11dReceivingAngle regenerates Figure 11(d): utility vs α_o.
func BenchmarkFig11dReceivingAngle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportHIPOvsBest(b, expt.RunAlphaOSweep(benchRC()))
	}
}

// BenchmarkFig11ePowerThreshold regenerates Figure 11(e): utility vs P_th.
func BenchmarkFig11ePowerThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportHIPOvsBest(b, expt.RunPthSweep(benchRC()))
	}
}

// BenchmarkFig11fNearestDistance regenerates Figure 11(f): utility vs d_min.
func BenchmarkFig11fNearestDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportHIPOvsBest(b, expt.RunDminSweep(benchRC()))
	}
}

// BenchmarkFig12Distributed regenerates Figure 12: non-distributed vs LPT-
// distributed extraction time across device multiples. Paper: 5 machines
// cut time by 80.10%, 25 machines by 92.39%.
func BenchmarkFig12Distributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := expt.RunDistributedTiming(benchRC())
		red := expt.DistributedReduction(fig)
		b.ReportMetric(red["Dis-5"], "pct-reduction-5")
		b.ReportMetric(red["Dis-25"], "pct-reduction-25")
	}
}

// BenchmarkFig13PthLadder regenerates Figure 13: per-type P_th ladders.
// Paper: curves track each other within ~3.20%.
func BenchmarkFig13PthLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := expt.RunPthLadder(benchRC())
		lo := fig.FindSeries("-0.01")
		hi := fig.FindSeries("+0.01")
		if lo != nil && hi != nil {
			b.ReportMetric(expt.ImprovementPercent(lo.Y, hi.Y), "pct-spread")
		}
	}
}

// BenchmarkFig14DminDmax regenerates Figure 14: the utility surface over
// d_max scale × d_min/d_max ratio.
func BenchmarkFig14DminDmax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := expt.RunDminDmaxGrid(benchRC())
		// Headline contrast: small ratio & large dmax vs large ratio.
		loRatio := fig.Series[0]
		hiRatio := fig.Series[len(fig.Series)-1]
		b.ReportMetric(loRatio.Y[len(loRatio.Y)-1], "utility-ratio0-dmax2x")
		b.ReportMetric(hiRatio.Y[len(hiRatio.Y)-1], "utility-ratio09-dmax2x")
	}
}

// BenchmarkFig15CDF regenerates Figure 15: per-device utility CDFs. Paper:
// no device falls below utility 0.5 under HIPO.
func BenchmarkFig15CDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := expt.RunUtilityCDF(benchRC())
		hipoSeries := fig.FindSeries(baselines.NameHIPO)
		if hipoSeries != nil && len(hipoSeries.X) > 0 {
			b.ReportMetric(hipoSeries.X[0], "hipo-min-utility")
		}
	}
}

// BenchmarkFig25Testbed regenerates the Figure 25 field-experiment replica:
// per-device utilities for HIPO vs GPPDCS Triangle vs GPAD Triangle.
func BenchmarkFig25Testbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := expt.RunTestbed(benchRC())
		uncharged := 0
		for _, u := range res.Utilities[baselines.NameHIPO] {
			if u == 0 {
				uncharged++
			}
		}
		b.ReportMetric(float64(uncharged), "hipo-uncharged-devices")
		b.ReportMetric(expt.Mean(res.Utilities[baselines.NameHIPO]), "hipo-mean-utility")
		b.ReportMetric(expt.Mean(res.Utilities[baselines.NameGPADTriangle]), "gpad-t-mean-utility")
	}
}

// BenchmarkFig26TestbedCDF regenerates Figure 26: received-power CDF on the
// testbed. Paper: HIPO's CDF reaches 1 last (most power delivered).
func BenchmarkFig26TestbedCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := expt.RunTestbed(benchRC())
		fig := expt.TestbedPowerCDFFigure(res)
		hipoSeries := fig.FindSeries(baselines.NameHIPO)
		if hipoSeries != nil {
			b.ReportMetric(expt.Mean(hipoSeries.X), "hipo-mean-power-mw")
		}
	}
}

// BenchmarkFig27Redeploy regenerates the Figure 27/28 redeployment study.
func BenchmarkFig27Redeploy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.RunRedeploy(benchRC())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MinTotalPlan.Total, "min-total-cost")
		b.ReportMetric(res.MinMaxPlan.Max, "min-max-cost")
	}
}

// --- Ablation benchmarks (design choices from DESIGN.md) ---

// BenchmarkAblationEpsilon contrasts coarse and fine power-approximation
// levels: candidate counts and achieved utility.
func BenchmarkAblationEpsilon(b *testing.B) {
	sc := expt.BuildScenario(expt.Params{Seed: 1})
	for _, eps := range []float64{0.05, 0.15, 0.30, 0.45} {
		name := map[float64]string{0.05: "eps=0.05", 0.15: "eps=0.15", 0.30: "eps=0.30", 0.45: "eps=0.45"}[eps]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol, err := core.Solve(sc, core.Options{Eps: eps})
				if err != nil {
					b.Fatal(err)
				}
				total := 0
				for _, c := range sol.Candidates {
					total += c
				}
				b.ReportMetric(float64(total), "candidates")
				b.ReportMetric(sol.Utility, "utility")
			}
		})
	}
}

// BenchmarkAblationGreedy contrasts the greedy variants on the same
// candidate set; the plain global greedy, which no core.GreedyVariant
// names, runs on core.BuildInstance's instance.
func BenchmarkAblationGreedy(b *testing.B) {
	sc := expt.BuildScenario(expt.Params{Seed: 1})
	cands, err := core.ExtractCandidates(sc, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name    string
		variant core.GreedyVariant
		greedy  func(*submodular.Instance) submodular.Result // nil: the variant's own
	}{
		{"lazy", core.GreedyLazy, nil},
		{"global", core.GreedyLazy, submodular.GreedyGlobal},
		{"per-type", core.GreedyPerType, nil},
		{"continuous", core.GreedyContinuous, nil},
	} {
		b.Run(v.name, func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.Variant = v.variant
			for i := 0; i < b.N; i++ {
				if v.greedy != nil {
					inst, _ := core.BuildInstance(sc, cands, opt)
					b.ReportMetric(v.greedy(inst).Value, "approx-value")
					continue
				}
				sol, err := core.SelectFromCandidates(sc, cands, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(sol.ApproxValue, "approx-value")
			}
		})
	}
}

// BenchmarkAblationDominance contrasts extraction with and without the
// PDCS dominance filter: candidate count and end-to-end solve time
// (extraction of every type, then selection).
func BenchmarkAblationDominance(b *testing.B) {
	sc := visindex.Ensure(expt.BuildScenario(expt.Params{Seed: 1}))
	for _, skip := range []bool{false, true} {
		name := "filtered"
		if skip {
			name = "unfiltered"
		}
		b.Run(name, func(b *testing.B) {
			opt := core.DefaultOptions()
			cfg := pdcs.Config{Eps1: opt.Eps1(), SkipDominanceFilter: skip}
			for i := 0; i < b.N; i++ {
				sol, err := core.SelectFromCandidates(sc, pdcs.ExtractAll(sc, cfg), opt)
				if err != nil {
					b.Fatal(err)
				}
				total := 0
				for _, c := range sol.Candidates {
					total += c
				}
				b.ReportMetric(float64(total), "candidates")
				b.ReportMetric(sol.Utility, "utility")
			}
		})
	}
}

// BenchmarkAblationParallelGen measures candidate extraction at different
// worker-pool widths.
func BenchmarkAblationParallelGen(b *testing.B) {
	sc := expt.BuildScenario(expt.Params{Seed: 1})
	eps1 := power.Eps1ForEps(0.15)
	for _, workers := range []int{1, 2, 4, 8} {
		name := map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4", 8: "workers=8"}[workers]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				expt.RunExtractionTasks(sc, eps1, workers, nil, nil)
			}
		})
	}
}

// BenchmarkAblationLPT contrasts LPT with naive list scheduling on the
// measured distributed-extraction task durations.
func BenchmarkAblationLPT(b *testing.B) {
	sc := expt.BuildScenario(expt.Params{Seed: 1})
	_, stats := expt.RunExtractionTasks(sc, power.Eps1ForEps(0.15), 4, nil, time.Now)
	tasks := make([]schedule.Task, len(stats.TaskSeconds))
	for i, s := range stats.TaskSeconds {
		tasks[i] = schedule.Task{ID: i, Duration: s}
	}
	b.Run("lpt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ms := schedule.LPT(tasks, 10).Makespan()
			b.ReportMetric(ms/schedule.LowerBound(tasks, 10), "makespan-over-lb")
		}
	})
	b.Run("list", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ms := schedule.ListSchedule(tasks, 10).Makespan()
			b.ReportMetric(ms/schedule.LowerBound(tasks, 10), "makespan-over-lb")
		}
	})
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkExactPower measures the per-pair charging-power evaluation
// (Equation (1)) including the line-of-sight test.
func BenchmarkExactPower(b *testing.B) {
	sc := expt.BuildScenario(expt.Params{Seed: 1})
	sol, err := core.Solve(sc, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if len(sol.Placed) == 0 {
		b.Fatal("no placement")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sol.Placed[i%len(sol.Placed)]
		power.Exact(sc, s, i%len(sc.Devices))
	}
}

// BenchmarkPDCSSweepPoint measures Algorithm 1 at a single point on the
// default 40-device scenario, through the sweep driver.
func BenchmarkPDCSSweepPoint(b *testing.B) {
	sc := visindex.Ensure(expt.BuildScenario(expt.Params{Seed: 1}))
	pts := []geom.Vec{sc.Devices[0].Pos}
	cfg := pdcs.Config{Eps1: power.Eps1ForEps(0.15), SkipDominanceFilter: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pdcs.ExtractAt(sc, i%3, pts, cfg)
	}
}

// BenchmarkCandidateGeneration measures the critical-point enumeration of
// Section 4.1 for one charger type.
func BenchmarkCandidateGeneration(b *testing.B) {
	sc := expt.BuildScenario(expt.Params{Seed: 1})
	cfg := discretize.Config{Eps1: power.Eps1ForEps(0.15)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		discretize.CandidatePositions(sc, i%3, cfg)
	}
}

// BenchmarkGreedySelection measures lazy-greedy selection on a large
// unfiltered candidate instance.
func BenchmarkGreedySelection(b *testing.B) {
	sc := visindex.Ensure(expt.BuildScenario(expt.Params{Seed: 1}))
	opt := core.DefaultOptions()
	cands := pdcs.ExtractAll(sc, pdcs.Config{Eps1: opt.Eps1(), SkipDominanceFilter: true})
	inst, _ := core.BuildInstance(sc, cands, opt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submodular.GreedyLazy(inst)
	}
}

// BenchmarkEndToEndSolve measures the full pipeline on the paper-default
// scenario (40 devices, 18 chargers, 2 obstacles).
func BenchmarkEndToEndSolve(b *testing.B) {
	sc := expt.BuildScenario(expt.Params{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(sc, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineGPPDCS measures the strongest baseline end to end.
func BenchmarkBaselineGPPDCS(b *testing.B) {
	sc := expt.BuildScenario(expt.Params{Seed: 1})
	eps1 := power.Eps1ForEps(0.15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.GPPDCS(sc, baselines.Triangle, eps1)
	}
}

// BenchmarkPublicSolve measures the public API overhead on a small
// scenario.
func BenchmarkPublicSolve(b *testing.B) {
	s := demoScenario()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSinkRand = rand.New(rand.NewSource(1)) // keep math/rand import honest

// BenchmarkBaselineRPAR measures the cheapest baseline for contrast.
func BenchmarkBaselineRPAR(b *testing.B) {
	sc := expt.BuildScenario(expt.Params{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.RPAR(sc, benchSinkRand)
	}
}

// BenchmarkLemma44CellCount materializes the feasible geometric areas of
// Section 4.1.2 on the default scenario and reports the measured cell count
// against the Lemma 4.4 worst-case scaling.
func BenchmarkLemma44CellCount(b *testing.B) {
	sc := expt.BuildScenario(expt.Params{Seed: 1})
	eps1 := power.Eps1ForEps(0.15)
	for i := 0; i < b.N; i++ {
		n := 0
		for q := range sc.ChargerTypes {
			n += cells.CountCells(sc, q, eps1)
		}
		b.ReportMetric(float64(n), "cells")
		b.ReportMetric(cells.Lemma44Bound(sc, eps1), "lemma44-bound")
	}
}

// BenchmarkAblationContinuousGreedy contrasts the default lazy greedy with
// the continuous greedy of reference [39] end to end, quantifying the
// paper's "too computationally demanding" judgment.
func BenchmarkAblationContinuousGreedy(b *testing.B) {
	sc := expt.BuildScenario(expt.Params{Seed: 1})
	cands, err := core.ExtractCandidates(sc, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name    string
		variant core.GreedyVariant
	}{
		{"lazy-1/2", core.GreedyLazy},
		{"continuous-1-1/e", core.GreedyContinuous},
	} {
		b.Run(v.name, func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.Variant = v.variant
			for i := 0; i < b.N; i++ {
				sol, err := core.SelectFromCandidates(sc, cands, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(sol.Utility, "utility")
			}
		})
	}
}

// BenchmarkRadialFeasibleArea measures the exact feasible-area integration
// of internal/radial on the default scenario.
func BenchmarkRadialFeasibleArea(b *testing.B) {
	sc := expt.BuildScenario(expt.Params{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radial.FeasibleAreaForDevice(sc, i%3, i%len(sc.Devices))
	}
}

// BenchmarkFieldSample measures power-field sampling at heatmap resolution.
func BenchmarkFieldSample(b *testing.B) {
	sc := expt.BuildScenario(expt.Params{Seed: 1})
	sol, err := core.Solve(sc, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		field.Sample(sc, sol.Placed, 0, 60, 60, 0)
	}
}

// BenchmarkScaleStress runs the full pipeline on a stress scenario well
// beyond the paper's defaults: 80 devices, 6 random obstacles, 36 chargers.
func BenchmarkScaleStress(b *testing.B) {
	sc := expt.BuildScenario(expt.Params{DeviceMult: 8, ChargerMult: 6, Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.Solve(sc, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sol.Utility, "utility")
	}
}

// BenchmarkTopologies contrasts solve cost across device topologies.
func BenchmarkTopologies(b *testing.B) {
	for _, tc := range []struct {
		name string
		topo expt.Topology
	}{
		{"uniform", expt.Uniform},
		{"clustered", expt.Clustered},
		{"corridor", expt.Corridor},
	} {
		sc := expt.BuildScenarioWith(expt.Params{Seed: 3}, tc.topo)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol, err := core.Solve(sc, core.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(sol.Utility, "utility")
			}
		})
	}
}
