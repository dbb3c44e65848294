// Command perfbench is the repository's performance benchmark: three seeded,
// closed-loop workloads driven against the solver library and the HTTP
// server, measured from outside the program.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//
//   - cold-solve: back-to-back (*hipo.Scenario).Solve calls (lazy greedy,
//     GOMAXPROCS workers, ε = 0.3) over paper-scale scenarios (100
//     obstacles, 100 devices, Table 2 hardware).
//   - mutate-resolve: hipo.Incremental sessions on the same tier, each
//     replaying a fixed seeded trace of device moves, add-then-remove pairs
//     and one small added obstacle; an op is Apply of one mutation + Solve.
//   - serve-mix: two clients on two keep-alive connections replaying seeded
//     plans of sync /v1/solve (miss on first sighting, hit on repeats),
//     /v1/evaluate and register → mutate → solve chains against
//     serve.New(...).Handler() behind a loopback httptest server.
//
// A run is a sequence of whole rounds. Each round is a fixed op sequence
// that is a pure function of --seed; the run stops at the first round
// boundary after the timed ops add up to --seconds (and the tail percentile
// has at least ten samples beyond it). Set-up work — first solves, session
// priming and its warm-up prefix, building a server and its first answer —
// happens outside the timed window and is reported as setup_s, the median
// of several set-up samples; reference outputs are computed beforehand and
// not timed at all. Throughput, CPU and allocation per op are medians of
// the per-round figures.
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, timed by calling each
// module's public functions directly and by reading the counters the
// program already exposes (hipo.WithTracer, /metrics). Every output is
// checked: solver placements against reference digests in refs.json, server
// responses byte-for-byte against library results. A human-readable
// summary goes to stderr.
//
// -record rewrites refs.json from the current solver (see record.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// eps is the approximation parameter of every solve the benchmark issues
// (the corpus default; ROADMAP's bench tiers use it too).
const eps = 0.3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// workload runs one benchmark workload into rec. An error means the run
// could not be set up at all; output mismatches are counted in rec.
type workload struct {
	name string
	// tailPct is the fixed tail percentile reported as op_tail_ms; runs are
	// extended until at least ten samples lie beyond it.
	tailPct float64
	run     func(cfg runConfig, rec *recorder) error
}

var workloads = []workload{
	{"cold-solve", 75, runCold},
	{"mutate-resolve", 75, runMutate},
	{"serve-mix", 95, runServe},
}

func main() {
	name := flag.String("workload", "", "workload: cold-solve, mutate-resolve or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "timed seconds per run")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	record := flag.String("record", "", "regenerate the reference table into this file and exit")
	flag.Parse()

	if *record != "" {
		if err := recordRefs(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rec := newRecorder(w.tailPct, cfg.seconds)
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if err := w.run(cfg, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{
		Correct:   rec.failed == 0 && len(rec.violations) == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
	}
	if cfg.trace {
		res.Metrics = rec.layers
	} else {
		res.Metrics = rec.endToEnd()
	}
	rec.summary(os.Stderr, w.name, cfg.trace)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// since returns the elapsed time in milliseconds.
func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
