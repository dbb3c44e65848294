package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hipo"
	"hipo/internal/core"
	"hipo/internal/discretize"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/power"
	"hipo/internal/submodular"
	"hipo/internal/visindex"
)

// layerMetrics is every per-layer metric of the traced run, with its unit.
// Each traced run reports all of them; a layer the workload leaves idle
// reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"visindex.build_ms", "ms"},
	{"discretize.self_ms", "ms"},
	{"discretize.positions", "count"},
	{"pdcs.self_ms", "ms"},
	{"pdcs.candidates_raw", "count"},
	{"pdcs.candidates_kept", "count"},
	{"pdcs.keep_ratio", "ratio"},
	{"pdcs.los_queries", "count"},
	{"pdcs.feasibility_queries", "count"},
	{"submodular.greedy_ms", "ms"},
	{"submodular.gain_evals", "count"},
	{"power.eval_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.unaccounted_ms", "ms"},
	{"core.unaccounted_pct", "%"},
	{"schedule.speedup_2w", "x"},
	{"hipotrace.overhead_pct", "%"},
	{"incremental.apply_ms", "ms"},
	{"incremental.solve_ms", "ms"},
	{"incremental.tasks_recomputed", "count"},
	{"incremental.task_reuse_ratio", "ratio"},
	{"incremental.sweeps_computed", "count"},
	{"incremental.sweep_reuse_ratio", "ratio"},
	{"incremental.gains_warm_ratio", "ratio"},
	{"incremental.cold_ms", "ms"},
	{"incremental.warm_speedup", "x"},
	{"serve.decode_ms", "ms"},
	{"serve.validate_ms", "ms"},
	{"serve.hash_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.handler_hit_ms", "ms"},
	{"serve.handler_miss_ms", "ms"},
	{"http.transport_ms", "ms"},
	{"serve.solve_discretize_ms", "ms"},
	{"serve.solve_pdcs_ms", "ms"},
	{"serve.solve_greedy_ms", "ms"},
	{"solvecache.hit_ratio", "ratio"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
}

// reconcileTolerancePct bounds |core.unaccounted_pct|: the layers timed
// one by one must add up to the wall time of a whole Solve within it.
const reconcileTolerancePct = 10

// finishLayers fills the idle layers with 0 and the GC figures of the
// timed window, and rejects a metric outside layerMetrics.
func (r *recorder) finishLayers() {
	n := float64(max(1, len(r.lat)))
	r.layer("runtime.gc_cycles_per_op", float64(r.win.gcs)/n, "count")
	r.layer("runtime.gc_pause_ms_per_op", float64(r.win.pauseNs)/1e6/n, "ms")
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.name] = true
		if _, ok := r.layers[m.name]; !ok {
			r.layer(m.name, 0, m.unit)
		}
	}
	for name := range r.layers {
		if !known[name] {
			r.violate("per-layer metric %q is not declared", name)
		}
	}
}

// solveProfile accumulates the outside-in breakdown of whole solves: each
// scenario is solved untraced, traced, with one worker, and stage by stage
// through the modules' public functions.
type solveProfile struct {
	n int

	untracedMs, tracedMs, oneWorkerMs float64

	visMs, discMs, extractMs, greedyMs, powerMs float64
	positions                                   int

	counters map[string]int64 // hipotrace counters of the traced solves
}

// profilePasses is how often profile measures each scenario. Pass p
// starts with the p-th of the four solves, so each kind of solve runs
// first, second, third and fourth equally often.
const profilePasses = 4

// profile solves one scenario untraced, traced, with one worker and stage
// by stage, profilePasses times over, and checks that every solve places
// exactly as the reference digest want.
func (sp *solveProfile) profile(pub *hipo.Scenario, want string) error {
	msc := toModel(pub)
	solve := func(opts ...hipo.Option) (float64, error) {
		t := time.Now()
		p, err := pub.Solve(append([]hipo.Option{hipo.WithEps(eps)}, opts...)...)
		ms := since(t)
		return ms, checkPlacement(p, err, want)
	}
	var untraced, traced, oneWorker float64
	var st stageTimes
	var counters map[string]int64
	kinds := []struct {
		name string
		run  func() error
	}{
		{"untraced solve", func() (err error) {
			untraced, err = solve()
			return err
		}},
		{"traced solve", func() (err error) {
			tr := hipo.NewTracer()
			traced, err = solve(hipo.WithTracer(tr))
			counters = tr.Breakdown().Counters
			return err
		}},
		{"one-worker solve", func() (err error) {
			oneWorker, err = solve(hipo.WithWorkers(1))
			return err
		}},
		{"stage-by-stage solve", func() (err error) {
			if st, err = stages(msc); err == nil && digest(st.placed, st.utility) != want {
				err = fmt.Errorf("placement digest %s, want %s", digest(st.placed, st.utility), want)
			}
			return err
		}},
	}
	if sp.counters == nil {
		sp.counters = map[string]int64{}
	}
	for pass := 0; pass < profilePasses; pass++ {
		for k := range kinds {
			kind := kinds[(pass+k)%len(kinds)]
			if err := kind.run(); err != nil {
				return fmt.Errorf("%s: %w", kind.name, err)
			}
		}
		sp.n++
		sp.untracedMs += untraced
		sp.tracedMs += traced
		sp.oneWorkerMs += oneWorker
		sp.visMs += st.visMs
		sp.discMs += st.discMs
		sp.extractMs += st.extractMs
		sp.greedyMs += st.greedyMs
		sp.powerMs += st.powerMs
		sp.positions += st.positions
		for k, v := range counters {
			sp.counters[k] += v
		}
	}
	return nil
}

// report writes the profile's per-solve means into rec's layer metrics.
func (sp *solveProfile) report(rec *recorder) {
	if sp.n == 0 {
		return
	}
	n := float64(sp.n)
	ctr := func(name string) float64 { return float64(sp.counters[name]) / n }
	layersMs := sp.visMs + sp.extractMs + sp.greedyMs + sp.powerMs
	unaccounted := sp.untracedMs - layersMs
	pct := 100 * unaccounted / sp.untracedMs

	rec.layer("visindex.build_ms", sp.visMs/n, "ms")
	rec.layer("discretize.self_ms", sp.discMs/n, "ms")
	rec.layer("discretize.positions", float64(sp.positions)/n, "count")
	rec.layer("pdcs.self_ms", (sp.extractMs-sp.discMs)/n, "ms")
	rec.layer("pdcs.candidates_raw", ctr("candidates_raw"), "count")
	rec.layer("pdcs.candidates_kept", ctr("candidates_kept"), "count")
	rec.layer("pdcs.keep_ratio", float64(sp.counters["candidates_kept"])/float64(max(1, sp.positions)), "ratio")
	rec.layer("pdcs.los_queries", ctr("los_queries"), "count")
	rec.layer("pdcs.feasibility_queries", ctr("feasibility_queries"), "count")
	rec.layer("submodular.greedy_ms", sp.greedyMs/n, "ms")
	rec.layer("submodular.gain_evals", ctr("gain_evals"), "count")
	rec.layer("power.eval_ms", sp.powerMs/n, "ms")
	rec.layer("core.solve_ms", sp.untracedMs/n, "ms")
	rec.layer("core.unaccounted_ms", unaccounted/n, "ms")
	rec.layer("core.unaccounted_pct", pct, "%")
	rec.layer("schedule.speedup_2w", sp.oneWorkerMs/sp.untracedMs, "x")
	rec.layer("hipotrace.overhead_pct", 100*(sp.tracedMs-sp.untracedMs)/sp.untracedMs, "%")

	if int64(sp.positions) != sp.counters["candidate_positions"] {
		rec.violate("discretize.CandidatePositions returned %d positions, the tracer counted %d",
			sp.positions, sp.counters["candidate_positions"])
	}
	rec.note("reconciliation over %d solves: layers %.2f ms + unaccounted %.2f ms = solve %.2f ms (%+.1f%%, tolerance ±%d%%)",
		sp.n, layersMs/n, unaccounted/n, sp.untracedMs/n, pct, reconcileTolerancePct)
	if math.Abs(pct) > reconcileTolerancePct {
		rec.violate("layer times miss Solve wall time by %+.1f%%, outside the ±%d%% tolerance", pct, reconcileTolerancePct)
	}
}

// stageTimes is one solve run stage by stage.
type stageTimes struct {
	visMs, discMs, extractMs, greedyMs, powerMs float64
	positions                                   int
	placed                                      []hipo.PlacedCharger
	utility                                     float64
}

// stages replays core.Solve's pipeline one public module call at a time:
// visindex.New, then per charger type pdcs.Extract (which runs
// discretize.CandidatePositions inside it), then core.BuildInstance +
// submodular.GreedyLazy, then power.TotalUtility. discretize.
// CandidatePositions is also timed on its own, on a separate index so its
// memo warm-up does not speed up the Extract that follows; pdcs self time
// is Extract minus that.
func stages(msc *model.Scenario) (stageTimes, error) {
	var st stageTimes
	if err := msc.Validate(); err != nil {
		return st, err
	}
	opt := core.Options{Eps: eps}
	eps1 := power.Eps1ForEps(eps)
	workers := runtime.GOMAXPROCS(0)

	sc := msc.Clone()
	t := time.Now()
	sc.AttachVisibilityIndex(visindex.New(sc))
	st.visMs = since(t)

	cands := make([][]pdcs.Candidate, len(sc.ChargerTypes))
	for q := range sc.ChargerTypes {
		own := visindex.Ensure(msc)
		t = time.Now()
		pos := discretize.CandidatePositions(own, q, discretize.Config{Eps1: eps1, Workers: workers})
		st.discMs += since(t)
		st.positions += len(pos)

		t = time.Now()
		cands[q] = pdcs.Extract(sc, q, pdcs.Config{Eps1: eps1, Workers: workers})
		st.extractMs += since(t)
	}

	t = time.Now()
	inst, flat := core.BuildInstance(sc, cands, opt)
	res := submodular.GreedyLazy(inst)
	st.greedyMs = since(t)
	placed := make([]model.Strategy, 0, len(res.Selected))
	for _, e := range res.Selected {
		placed = append(placed, flat[e].S)
	}

	t = time.Now()
	st.utility = power.TotalUtility(sc, placed)
	st.powerMs = since(t)

	for _, s := range placed {
		st.placed = append(st.placed, hipo.PlacedCharger{
			Pos: hipo.Point{X: s.Pos.X, Y: s.Pos.Y}, Orient: s.Orient, Type: s.Type,
		})
	}
	return st, nil
}
