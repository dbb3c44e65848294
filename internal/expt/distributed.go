package expt

import (
	"fmt"
	"math"
	"time"

	"hipo/internal/discretize"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/power"
	"hipo/internal/schedule"
	"hipo/internal/visindex"
)

// MachineCounts are the parallel-machine settings of Figure 12.
var MachineCounts = []int{5, 10, 15, 20, 25}

// RunDistributedTiming regenerates Figure 12: the (normalized) time
// consumption of the parallel-processing part of PDCS extraction,
// non-distributed versus LPT-distributed onto 5–25 machines, as the number
// of devices grows 1×–8×. All values are divided by the non-distributed
// time at 1× devices, exactly as the paper normalizes, so the curves are
// platform-independent.
func RunDistributedTiming(rc RunConfig) Figure {
	rc = rc.withDefaults()
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	labels := append([]string{"Non-Dis"}, machineLabels()...)
	series := make([]Series, len(labels))
	for i, l := range labels {
		series[i] = Series{Label: l, X: xs, Y: make([]float64, len(xs))}
	}
	eps1 := power.Eps1ForEps(rc.Eps)

	var norm float64 // non-distributed time at 1× devices, first run
	for xi, x := range xs {
		serialSum := 0.0
		makespanSums := make([]float64, len(MachineCounts))
		for r := 0; r < rc.Runs; r++ {
			sc := BuildScenario(Params{DeviceMult: int(x), Seed: rc.Seed + int64(r)})
			_, stats := RunExtractionTasks(sc, eps1, rc.Workers, MachineCounts, time.Now)
			serialSum += stats.SerialSeconds
			for mi, m := range MachineCounts {
				makespanSums[mi] += stats.MakespanSeconds[m]
			}
		}
		if xi == 0 {
			norm = serialSum / float64(rc.Runs)
			if norm <= 0 {
				norm = 1e-9
			}
		}
		series[0].Y[xi] = serialSum / float64(rc.Runs) / norm
		for mi := range MachineCounts {
			series[mi+1].Y[xi] = makespanSums[mi] / float64(rc.Runs) / norm
		}
	}
	return Figure{
		ID: "fig12", Title: "Time consumption: distributed vs non-distributed",
		XLabel: "Number of Devices (Times)", YLabel: "Time Consumption (Times)",
		Series: series,
	}
}

func machineLabels() []string {
	out := make([]string, len(MachineCounts))
	for i, m := range MachineCounts {
		out[i] = fmt.Sprintf("Dis-%d", m)
	}
	return out
}

// DistributedReduction summarizes Figure 12 the way the paper reports it:
// the average percentage reduction of each distributed setting relative to
// the non-distributed time, across device multiples.
func DistributedReduction(fig Figure) map[string]float64 {
	nonDis := fig.FindSeries("Non-Dis")
	out := make(map[string]float64)
	if nonDis == nil {
		return out
	}
	for _, s := range fig.Series {
		if s.Label == "Non-Dis" {
			continue
		}
		var vals []float64
		for i := range s.Y {
			if nonDis.Y[i] > 0 {
				vals = append(vals, 100*(nonDis.Y[i]-s.Y[i])/nonDis.Y[i])
			}
		}
		out[s.Label] = Mean(vals)
	}
	return out
}

// DistStats reports the timing of a distributed extraction run.
type DistStats struct {
	// TaskSeconds[i] is task i's cost: its measured serial duration when a
	// clock is supplied, otherwise the deterministic discretize.TaskCost
	// estimate summed across charger types (arbitrary units) — the same
	// cost model that orders the worker pool's hand-out.
	TaskSeconds []float64
	// SerialSeconds is Σ TaskSeconds: the non-distributed cost of the
	// parallel-processing part.
	SerialSeconds float64
	// MakespanSeconds[m] is the simulated LPT makespan with m machines, for
	// each requested machine count, over the same TaskSeconds.
	MakespanSeconds map[int]float64
}

// RunExtractionTasks implements Algorithm 5: it splits PDCS extraction into
// the per-device tasks of Algorithm 4 (device i's own critical positions
// plus its pair constructions with larger-indexed neighbors, each swept
// through pdcs.ExtractAt), runs them on a pool of workers goroutines in LPT
// order (0 = 1), and simulates the LPT makespan for every machine count in
// machineCounts. When the number of machines is at least the number of
// devices, each task gets its own machine, as in Algorithm 5 line 1.
// Candidates are merged per charger type in task order — so output is
// independent of worker count and hand-out order — deduplicated, and
// dominance-filtered.
//
// clock, when non-nil, timestamps each task; with a nil clock the task
// costs are the TaskCost estimates and every statistic is deterministic.
func RunExtractionTasks(sc *model.Scenario, eps1 float64, workers int, machineCounts []int, clock func() time.Time) ([][]pdcs.Candidate, DistStats) {
	sc = visindex.Ensure(sc)
	no := len(sc.Devices)
	gens := make([]*discretize.Generator, len(sc.ChargerTypes))
	for q := range gens {
		gens[q] = discretize.NewGenerator(sc, q, discretize.Config{Eps1: eps1})
	}
	stats := DistStats{TaskSeconds: make([]float64, no), MakespanSeconds: make(map[int]float64)}
	tasks := make([]schedule.Task, no)
	for i := range tasks {
		for _, g := range gens {
			stats.TaskSeconds[i] += g.TaskCost(i)
		}
		tasks[i] = schedule.Task{ID: i, Duration: stats.TaskSeconds[i]}
	}
	outs := schedule.RunPoolOrdered(no, max(workers, 1), schedule.LPTOrder(tasks), func(i int) []pdcs.Candidate {
		if clock == nil {
			return runTask(sc, gens, i, eps1)
		}
		start := clock()
		cands := runTask(sc, gens, i, eps1)
		stats.TaskSeconds[i] = clock().Sub(start).Seconds()
		return cands
	})

	for i, sec := range stats.TaskSeconds {
		stats.SerialSeconds += sec
		tasks[i].Duration = sec
	}
	for _, m := range machineCounts {
		if m >= no {
			// One task per machine: makespan is the longest task.
			for _, t := range tasks {
				stats.MakespanSeconds[m] = math.Max(stats.MakespanSeconds[m], t.Duration)
			}
			continue
		}
		stats.MakespanSeconds[m] = schedule.LPT(tasks, m).Makespan()
	}

	// Merge per charger type, deduplicate positions produced by distinct
	// tasks, and dominance-filter.
	byType := make([][]pdcs.Candidate, len(sc.ChargerTypes))
	for _, cands := range outs {
		for _, c := range cands {
			byType[c.S.Type] = append(byType[c.S.Type], c)
		}
	}
	for q := range byType {
		byType[q] = pdcs.FilterDominated(dedupCandidates(byType[q]), no)
	}
	return byType, stats
}

// runTask executes device i's extraction task serially: per charger type,
// the task's own deduplicated, useful positions swept through
// pdcs.ExtractAt, each position keeping its own coverage sets.
func runTask(sc *model.Scenario, gens []*discretize.Generator, i int, eps1 float64) []pdcs.Candidate {
	cfg := pdcs.Config{Eps1: eps1, Workers: 1, SkipDominanceFilter: true}
	var cands []pdcs.Candidate
	for q, g := range gens {
		pts := g.FilterUseful(discretize.Dedup(g.TaskPositions(i)))
		cands = append(cands, pdcs.ExtractAt(sc, q, pts, cfg)...)
	}
	return cands
}

// dedupCandidates removes candidates with near-identical strategies using
// quantized (position, orientation) keys.
func dedupCandidates(cands []pdcs.Candidate) []pdcs.Candidate {
	type key struct{ x, y, o int64 }
	seen := make(map[key]bool, len(cands))
	quant := func(v float64) int64 { return int64(math.Round(v / 1e-6)) }
	out := cands[:0]
	for i := range cands {
		k := key{quant(cands[i].S.Pos.X), quant(cands[i].S.Pos.Y), quant(geom.NormAngle(cands[i].S.Orient))}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, cands[i])
	}
	return out
}
