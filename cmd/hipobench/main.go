// Command hipobench is the deterministic benchmark harness for the spatial
// visibility index: it sweeps obstacle count, device population, and ε over
// seeded scenarios, times line-of-sight queries and full solves with the
// index against the brute-force reference, verifies both arms produce
// bit-for-bit identical placements, and writes a machine-readable JSON
// report (schema hipo-bench/v2).
//
// Since v2 every solve point also runs a third, traced arm: the indexed
// solve repeated with a hipotrace.Tracer attached. Its per-stage breakdown
// (durations plus pipeline counters) lands in the report, and the harness
// verifies the traced placement is bit-for-bit identical to the untraced
// one — tracing must be purely observational.
//
// v3 adds extraction tiers (up to 200 obstacles × 200 devices) that
// benchmark the PDCS extraction stage in isolation: a baseline arm running
// the pre-overhaul pipeline (pruning and line-of-sight batching disabled),
// an optimized arm running the overhauled one, and a traced optimized arm
// whose stage spans yield the pdcs_stage_speedup acceptance metric. All
// three arms must produce bit-for-bit identical candidate sets.
//
// v4 adds the incremental arm: a warm hipo.Incremental session is primed
// with a full solve, then a single device move, add, and remove are applied
// one at a time; after each, the warm re-solve races a cold solve of the
// same mutated scenario. The harness verifies every warm placement is
// bit-for-bit identical to its cold counterpart (the utility-parity gate)
// and reports per-mutation and aggregate speedups plus the session's cache
// counters.
//
// Usage:
//
//	hipobench [-out BENCH_pr10.json] [-seed 1] [-quick]
//
// The scenario at every sweep point is fully determined by the seed, so two
// runs on the same toolchain produce the same scenario hashes and the same
// placements; timings are hardware-dependent, speedups mostly are not.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"hipo"
	"hipo/internal/core"
	"hipo/internal/corpus"
	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/hipotrace"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/pdcs/pdcsref"
	"hipo/internal/power"
	"hipo/internal/visindex"
)

// Schema identifies the report format for downstream tooling. v2 added the
// traced solve arm: solve.traced_ms, solve.traced_identical, solve.trace.
// v3 added the extraction tiers: point.extract with the three-arm PDCS
// stage comparison. v4 added point.incremental: the warm-session re-solve
// versus cold-solve comparison with its per-mutation parity gate.
const Schema = "hipo-bench/v4"

// LOSResult reports the line-of-sight micro-benchmark at one sweep point.
type LOSResult struct {
	Queries         int     `json:"queries"`
	BruteNsOp       float64 `json:"brute_ns_op"`
	IndexedNsOp     float64 `json:"indexed_ns_op"`
	Speedup         float64 `json:"speedup"`
	BruteAllocsOp   float64 `json:"brute_allocs_op"`
	IndexedAllocsOp float64 `json:"indexed_allocs_op"`
	// Agree is the differential check: every query answered identically.
	Agree bool `json:"agree"`
}

// SolveResult reports the end-to-end solver comparison at one sweep point.
type SolveResult struct {
	BruteMs   float64 `json:"brute_ms"`
	IndexedMs float64 `json:"indexed_ms"`
	Speedup   float64 `json:"speedup"`
	// IdenticalPlacement is true when both arms placed the same strategies
	// in the same order, bit for bit.
	IdenticalPlacement bool    `json:"identical_placement"`
	Utility            float64 `json:"utility"`
	Chargers           int     `json:"chargers"`
	// TracedMs times the third arm: the indexed solve re-run with a tracer
	// attached. TracedIdentical asserts tracing changed nothing about the
	// placement, and Trace is that arm's per-stage breakdown.
	TracedMs        float64              `json:"traced_ms"`
	TracedIdentical bool                 `json:"traced_identical"`
	Trace           *hipotrace.Breakdown `json:"trace,omitempty"`
}

// ExtractResult reports the three-arm PDCS extraction benchmark at one
// sweep point. The baseline arm runs the seed extraction pipeline preserved
// in internal/pdcs/pdcsref (over the same pruned discretization); the
// optimized arm runs pdcs.ExtractAll; the traced arm repeats the optimized arm with a tracer
// attached. Baseline and traced arms both carry tracers so the
// pdcs_stage_speedup compares like with like: the ratio of their summed
// "pdcs" stage spans, which excludes the shared discretization stage and is
// the PR's acceptance metric.
type ExtractResult struct {
	BaselineMs  float64 `json:"baseline_ms"`
	OptimizedMs float64 `json:"optimized_ms"`
	TracedMs    float64 `json:"traced_ms"`
	// Speedup is the whole-extraction ratio between the two traced arms.
	Speedup          float64 `json:"speedup"`
	BaselinePdcsMs   float64 `json:"baseline_pdcs_ms"`
	TracedPdcsMs     float64 `json:"traced_pdcs_ms"`
	PdcsStageSpeedup float64 `json:"pdcs_stage_speedup"`
	// Identical: baseline and optimized candidate sets agree bit for bit.
	// TracedIdentical: attaching the tracer changed nothing.
	Identical       bool                 `json:"identical"`
	TracedIdentical bool                 `json:"traced_identical"`
	Candidates      int                  `json:"candidates"`
	Trace           *hipotrace.Breakdown `json:"trace,omitempty"`
}

// IncrementalMutation is one measured mutation step of the incremental arm:
// the mutation applied, the warm session re-solve versus the cold solve of
// the identical mutated scenario, and the bit-for-bit parity verdict.
type IncrementalMutation struct {
	Op            string  `json:"op"`
	ColdMs        float64 `json:"cold_ms"`
	IncrementalMs float64 `json:"incremental_ms"`
	Speedup       float64 `json:"speedup"`
	// Parity: the warm placement equals the cold one bit for bit (same
	// strategies in the same order, same utility bits).
	Parity   bool    `json:"parity"`
	Utility  float64 `json:"utility"`
	Chargers int     `json:"chargers"`
}

// IncrementalResult reports the incremental arm at one sweep point: a
// session is primed with a full solve, then a single device move, add, and
// remove are applied one at a time, each followed by a warm re-solve that
// races a cold solve of the same mutated scenario.
type IncrementalResult struct {
	PrimeMs   float64               `json:"prime_ms"`
	Mutations []IncrementalMutation `json:"mutations"`
	// Speedup aggregates the arm: total cold milliseconds over total warm
	// milliseconds across all mutation steps. Parity is the conjunction of
	// the per-mutation gates.
	Speedup float64                `json:"speedup"`
	Parity  bool                   `json:"parity"`
	Stats   *hipo.IncrementalStats `json:"stats"`
}

// Point is one sweep point of the trajectory.
type Point struct {
	Name         string             `json:"name"`
	Obstacles    int                `json:"obstacles"`
	DeviceMult   int                `json:"device_mult"`
	Devices      int                `json:"devices"`
	Eps          float64            `json:"eps"`
	ScenarioHash string             `json:"scenario_hash"`
	LOS          LOSResult          `json:"los"`
	Solve        *SolveResult       `json:"solve,omitempty"`
	Extract      *ExtractResult     `json:"extract,omitempty"`
	Incremental  *IncrementalResult `json:"incremental,omitempty"`
}

// Report is the full benchmark artifact.
type Report struct {
	Schema    string  `json:"schema"`
	Seed      int64   `json:"seed"`
	Quick     bool    `json:"quick"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	NumCPU    int     `json:"num_cpu"`
	Points    []Point `json:"points"`
}

type sweepPoint struct {
	name        string
	obstacles   int
	deviceMult  int
	eps         float64
	solve       bool
	extract     bool
	incremental bool
}

func sweep(quick bool) []sweepPoint {
	if quick {
		return []sweepPoint{
			{"obs-2", 2, 4, 0.3, true, false, false},
			{"obs-10", 10, 4, 0.3, true, true, true},
		}
	}
	return []sweepPoint{
		// Obstacle-count axis: the index's reason to exist.
		{"obs-2", 2, 4, 0.3, true, false, false},
		{"obs-10", 10, 4, 0.3, true, true, true},
		{"obs-25", 25, 4, 0.3, true, false, false},
		{"obs-50", 50, 4, 0.3, true, false, true},
		// Device-count axis at a fixed obstacle field.
		{"dev-2", 10, 2, 0.3, true, false, false},
		{"dev-6", 10, 6, 0.3, true, false, false},
		// Finer ε: more candidates, more visibility queries per solve.
		{"eps-0.15", 10, 4, 0.15, true, false, false},
		// Extraction tiers: PDCS stage in isolation, too large for the
		// brute-force solve arm but exactly where pruning, batching, and
		// pooling pay off. The incremental arm runs here too — large tiers
		// are where warm-session reuse matters most.
		{"ext-100", 100, 10, 0.3, false, true, true},
		{"obs-200-dev-200", 200, 20, 0.3, false, true, true},
	}
}

func main() {
	var (
		outPath = flag.String("out", "BENCH_pr10.json", "output JSON path")
		seed    = flag.Int64("seed", 1, "scenario seed")
		quick   = flag.Bool("quick", false, "small sweep for CI smoke runs")
	)
	flag.Parse()

	rep := Report{
		Schema:    Schema,
		Seed:      *seed,
		Quick:     *quick,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	minDur := 200 * time.Millisecond
	if *quick {
		minDur = 20 * time.Millisecond
	}

	for _, sp := range sweep(*quick) {
		pt, err := runPoint(sp, *seed, minDur)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hipobench: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		rep.Points = append(rep.Points, pt)
		fmt.Fprintf(os.Stderr, "%-9s obstacles=%-3d devices=%-3d eps=%.2f  los %7.0f→%6.0f ns/op (%.1fx)",
			sp.name, pt.Obstacles, pt.Devices, pt.Eps, pt.LOS.BruteNsOp, pt.LOS.IndexedNsOp, pt.LOS.Speedup)
		if pt.Solve != nil {
			fmt.Fprintf(os.Stderr, "  solve %8.1f→%8.1f ms (%.2fx) identical=%v traced=%.1fms",
				pt.Solve.BruteMs, pt.Solve.IndexedMs, pt.Solve.Speedup,
				pt.Solve.IdenticalPlacement, pt.Solve.TracedMs)
		}
		if pt.Extract != nil {
			fmt.Fprintf(os.Stderr, "  extract pdcs %7.1f→%6.1f ms (%.2fx stage) identical=%v traced_identical=%v",
				pt.Extract.BaselinePdcsMs, pt.Extract.TracedPdcsMs, pt.Extract.PdcsStageSpeedup,
				pt.Extract.Identical, pt.Extract.TracedIdentical)
		}
		if pt.Incremental != nil {
			fmt.Fprintf(os.Stderr, "  incremental %.2fx parity=%v",
				pt.Incremental.Speedup, pt.Incremental.Parity)
		}
		fmt.Fprintln(os.Stderr)
	}

	f, err := os.Create(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hipobench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		fmt.Fprintln(os.Stderr, "hipobench:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "hipobench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d points)\n", *outPath, len(rep.Points))
}

func runPoint(sp sweepPoint, seed int64, minDur time.Duration) (Point, error) {
	sc := expt.BenchScenario(seed, sp.obstacles, sp.deviceMult)
	hash, err := corpus.ToPublic(sc).ScenarioHash()
	if err != nil {
		return Point{}, err
	}
	pt := Point{
		Name:         sp.name,
		Obstacles:    sp.obstacles,
		DeviceMult:   sp.deviceMult,
		Devices:      len(sc.Devices),
		Eps:          sp.eps,
		ScenarioHash: hash,
		LOS:          benchLOS(sc, seed, minDur),
	}
	if sp.solve {
		sr, err := benchSolve(sc, sp.eps)
		if err != nil {
			return Point{}, err
		}
		pt.Solve = sr
	}
	if sp.extract {
		er, err := benchExtract(sc, sp.eps)
		if err != nil {
			return Point{}, err
		}
		pt.Extract = er
	}
	if sp.incremental {
		ir, err := benchIncremental(sc, seed, sp.eps)
		if err != nil {
			return Point{}, err
		}
		pt.Incremental = ir
	}
	return pt, nil
}

// benchIncremental primes a warm hipo.Incremental session with a full solve,
// then applies a single device move, add, and remove, one at a time. After
// each mutation the warm re-solve is timed against a cold (*Scenario).Solve
// of the identical mutated scenario, and the two placements are compared
// bit for bit — the utility-parity gate. Mutated positions are drawn from a
// seeded rejection sampler over the scenario's feasible region, so the arm
// is as deterministic as the rest of the sweep.
func benchIncremental(sc *model.Scenario, seed int64, eps float64) (*IncrementalResult, error) {
	pub := corpus.ToPublic(sc)
	inc, err := pub.NewIncremental(hipo.WithEps(eps))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := inc.Solve(); err != nil {
		return nil, fmt.Errorf("prime solve: %w", err)
	}
	res := &IncrementalResult{
		PrimeMs: float64(time.Since(start).Nanoseconds()) / 1e6,
		Parity:  true,
	}

	rng := rand.New(rand.NewSource(seed + 104729))
	feasible := func() hipo.Point {
		for {
			p := randomPoint(sc, rng)
			if sc.FeasiblePosition(p) {
				return hipo.Point{X: p.X, Y: p.Y}
			}
		}
	}
	muts := []hipo.Mutation{
		hipo.MutateMoveDevice(0, feasible(), rng.Float64()*2*math.Pi),
		hipo.MutateAddDevice(hipo.Device{Pos: feasible(), Orient: rng.Float64() * 2 * math.Pi}),
		// Remove the device just added, so every step is a single-device
		// edit against a comparable population.
		hipo.MutateRemoveDevice(len(pub.Devices)),
	}

	var coldTotal, warmTotal time.Duration
	for _, m := range muts {
		if err := inc.Apply(m); err != nil {
			return nil, fmt.Errorf("apply %s: %w", m.Op, err)
		}
		start = time.Now()
		warm, err := inc.Solve()
		if err != nil {
			return nil, fmt.Errorf("incremental solve after %s: %w", m.Op, err)
		}
		warmDur := time.Since(start)

		mutated := inc.Scenario()
		start = time.Now()
		cold, err := mutated.Solve(hipo.WithEps(eps))
		if err != nil {
			return nil, fmt.Errorf("cold solve after %s: %w", m.Op, err)
		}
		coldDur := time.Since(start)

		im := IncrementalMutation{
			Op:            m.Op,
			ColdMs:        float64(coldDur.Nanoseconds()) / 1e6,
			IncrementalMs: float64(warmDur.Nanoseconds()) / 1e6,
			Parity: math.Float64bits(warm.Utility) == math.Float64bits(cold.Utility) &&
				samePlacedChargers(warm.Chargers, cold.Chargers),
			Utility:  warm.Utility,
			Chargers: len(warm.Chargers),
		}
		if warmDur > 0 {
			im.Speedup = float64(coldDur) / float64(warmDur)
		}
		res.Mutations = append(res.Mutations, im)
		res.Parity = res.Parity && im.Parity
		coldTotal += coldDur
		warmTotal += warmDur
	}
	if warmTotal > 0 {
		res.Speedup = float64(coldTotal) / float64(warmTotal)
	}
	st := inc.Stats()
	res.Stats = &st
	if !res.Parity {
		return res, fmt.Errorf("incremental placement diverged from cold solve")
	}
	return res, nil
}

// samePlacedChargers is samePlacement over the public placement type.
func samePlacedChargers(a, b []hipo.PlacedCharger) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Pos.X) != math.Float64bits(b[i].Pos.X) ||
			math.Float64bits(a[i].Pos.Y) != math.Float64bits(b[i].Pos.Y) ||
			math.Float64bits(a[i].Orient) != math.Float64bits(b[i].Orient) ||
			a[i].Type != b[i].Type {
			return false
		}
	}
	return true
}

// benchExtract runs three extraction arms — the pdcsref seed baseline,
// pdcs.ExtractAll, and pdcs.ExtractAll with a tracer — and verifies all
// arms produce bit-for-bit identical candidate sets. Each arm gets its own
// scenario clone and fresh visibility index so no memoized state leaks
// between arms.
func benchExtract(sc *model.Scenario, eps float64) (*ExtractResult, error) {
	eps1 := power.Eps1ForEps(eps)
	run := func(extract func(*model.Scenario, pdcs.Config) [][]pdcs.Candidate, cfg pdcs.Config) ([][]pdcs.Candidate, time.Duration) {
		s := visindex.Ensure(sc.Clone())
		start := time.Now()
		out := extract(s, cfg)
		return out, time.Since(start)
	}

	trb := hipotrace.New()
	base, baseDur := run(pdcsref.ExtractAll, pdcs.Config{Eps1: eps1, Tracer: trb})
	opt, optDur := run(pdcs.ExtractAll, pdcs.Config{Eps1: eps1})
	tr := hipotrace.New()
	traced, tracedDur := run(pdcs.ExtractAll, pdcs.Config{Eps1: eps1, Tracer: tr})

	n := 0
	for _, cs := range opt {
		n += len(cs)
	}
	res := &ExtractResult{
		BaselineMs:      float64(baseDur.Nanoseconds()) / 1e6,
		OptimizedMs:     float64(optDur.Nanoseconds()) / 1e6,
		TracedMs:        float64(tracedDur.Nanoseconds()) / 1e6,
		BaselinePdcsMs:  trb.Breakdown().StageTotalsMs["pdcs"],
		TracedPdcsMs:    tr.Breakdown().StageTotalsMs["pdcs"],
		Identical:       sameCandidates(base, opt),
		TracedIdentical: sameCandidates(opt, traced),
		Candidates:      n,
		Trace:           tr.Breakdown(),
	}
	if tracedDur > 0 {
		res.Speedup = float64(baseDur) / float64(tracedDur)
	}
	if res.TracedPdcsMs > 0 {
		res.PdcsStageSpeedup = res.BaselinePdcsMs / res.TracedPdcsMs
	}
	if !res.Identical {
		return res, fmt.Errorf("candidate sets differ between baseline and overhauled extraction")
	}
	if !res.TracedIdentical {
		return res, fmt.Errorf("tracing changed the extracted candidates")
	}
	return res, nil
}

// sameCandidates reports whether two per-type candidate sets are bit-for-bit
// identical: same strategies in the same order with the same coverage lists.
func sameCandidates(a, b [][]pdcs.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for q := range a {
		if len(a[q]) != len(b[q]) {
			return false
		}
		for i := range a[q] {
			x, y := a[q][i], b[q][i]
			if math.Float64bits(x.S.Pos.X) != math.Float64bits(y.S.Pos.X) ||
				math.Float64bits(x.S.Pos.Y) != math.Float64bits(y.S.Pos.Y) ||
				math.Float64bits(x.S.Orient) != math.Float64bits(y.S.Orient) ||
				x.S.Type != y.S.Type || len(x.Covers) != len(y.Covers) {
				return false
			}
			for m := range x.Covers {
				if x.Covers[m].Device != y.Covers[m].Device ||
					math.Float64bits(x.Covers[m].Power) != math.Float64bits(y.Covers[m].Power) {
					return false
				}
			}
		}
	}
	return true
}

// benchLOS times the raw line-of-sight predicate, brute force versus
// indexed, over a deterministic query workload, and differentially checks
// every answer.
func benchLOS(sc *model.Scenario, seed int64, minDur time.Duration) LOSResult {
	ix := visindex.New(sc)
	rng := rand.New(rand.NewSource(seed + 7919))
	qs := make([]geom.Segment, 512)
	for i := range qs {
		qs[i] = geom.Seg(randomPoint(sc, rng), randomPoint(sc, rng))
	}

	agree := true
	for _, q := range qs {
		if ix.LineOfSight(q.A, q.B) != sc.BruteForceLineOfSight(q.A, q.B) {
			agree = false
		}
	}

	res := LOSResult{
		Queries: len(qs),
		Agree:   agree,
		BruteNsOp: timeLOS(func(a, b geom.Vec) bool {
			return sc.BruteForceLineOfSight(a, b)
		}, qs, minDur),
		IndexedNsOp: timeLOS(ix.LineOfSight, qs, minDur),
		BruteAllocsOp: testing.AllocsPerRun(10, func() {
			for _, q := range qs {
				sc.BruteForceLineOfSight(q.A, q.B)
			}
		}) / float64(len(qs)),
		IndexedAllocsOp: testing.AllocsPerRun(10, func() {
			for _, q := range qs {
				ix.LineOfSight(q.A, q.B)
			}
		}) / float64(len(qs)),
	}
	if res.IndexedNsOp > 0 {
		res.Speedup = res.BruteNsOp / res.IndexedNsOp
	}
	return res
}

// timeLOS measures ns/op of one predicate over the query set, growing the
// iteration count until the measured window exceeds minDur (the classic
// testing.B loop, inlined because this is a command, not a test binary).
func timeLOS(f func(a, b geom.Vec) bool, qs []geom.Segment, minDur time.Duration) float64 {
	// Warm up (fills the index's internal buffers, loads caches).
	for _, q := range qs {
		f(q.A, q.B)
	}
	for iters := 1; ; iters *= 2 {
		start := time.Now()
		for it := 0; it < iters; it++ {
			for _, q := range qs {
				f(q.A, q.B)
			}
		}
		elapsed := time.Since(start)
		if elapsed >= minDur || iters > 1<<20 {
			return float64(elapsed.Nanoseconds()) / float64(iters*len(qs))
		}
	}
}

// benchSolve times one full pipeline run per arm and verifies the arms
// agree bit for bit.
func benchSolve(sc *model.Scenario, eps float64) (*SolveResult, error) {
	opt := core.DefaultOptions()
	opt.Eps = eps

	opt.BruteForceVisibility = true
	start := time.Now()
	brute, err := core.Solve(sc, opt)
	if err != nil {
		return nil, fmt.Errorf("brute-force solve: %w", err)
	}
	bruteDur := time.Since(start)

	opt.BruteForceVisibility = false
	start = time.Now()
	indexed, err := core.Solve(sc, opt)
	if err != nil {
		return nil, fmt.Errorf("indexed solve: %w", err)
	}
	indexedDur := time.Since(start)

	// Third arm: same indexed solve, tracer attached. The breakdown goes
	// into the report; the placement must not move by a single bit.
	opt.Tracer = hipotrace.New()
	start = time.Now()
	traced, err := core.Solve(sc, opt)
	if err != nil {
		return nil, fmt.Errorf("traced solve: %w", err)
	}
	tracedDur := time.Since(start)

	res := &SolveResult{
		BruteMs:            float64(bruteDur.Nanoseconds()) / 1e6,
		IndexedMs:          float64(indexedDur.Nanoseconds()) / 1e6,
		IdenticalPlacement: samePlacement(brute.Placed, indexed.Placed),
		Utility:            indexed.Utility,
		Chargers:           len(indexed.Placed),
		TracedMs:           float64(tracedDur.Nanoseconds()) / 1e6,
		TracedIdentical:    samePlacement(indexed.Placed, traced.Placed),
		Trace:              opt.Tracer.Breakdown(),
	}
	if indexedDur > 0 {
		res.Speedup = float64(bruteDur) / float64(indexedDur)
	}
	if !res.IdenticalPlacement {
		return res, fmt.Errorf("placements differ between brute-force and indexed visibility")
	}
	if !res.TracedIdentical {
		return res, fmt.Errorf("tracing changed the placement")
	}
	return res, nil
}

func samePlacement(a, b []model.Strategy) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Pos.X) != math.Float64bits(b[i].Pos.X) ||
			math.Float64bits(a[i].Pos.Y) != math.Float64bits(b[i].Pos.Y) ||
			math.Float64bits(a[i].Orient) != math.Float64bits(b[i].Orient) ||
			a[i].Type != b[i].Type {
			return false
		}
	}
	return true
}

func randomPoint(sc *model.Scenario, rng *rand.Rand) geom.Vec {
	return geom.V(
		sc.Region.Min.X+rng.Float64()*sc.Region.Width(),
		sc.Region.Min.Y+rng.Float64()*sc.Region.Height(),
	)
}
