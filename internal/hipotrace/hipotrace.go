// Package hipotrace is a lightweight per-solve tracer for the HIPO
// pipeline: named stage spans with monotonic durations, fixed-ID atomic
// counters for the quantities that explain where a solve's time goes (LOS
// queries, candidates before/after dominance filtering, greedy gain
// evaluations, lazy-heap re-evaluations, visibility-memo hits), and
// runtime/pprof goroutine labels so CPU profiles attribute samples to
// pipeline stages.
//
// A nil *Tracer is the off switch: every method is nil-safe and returns
// immediately, the pipeline's hot loops count into local integers that are
// flushed with a single Add per stage, and no allocation or atomic
// operation happens on the no-tracer path (bench_test.go's
// BenchmarkSolveNilTracer and the zero-alloc test in internal/submodular
// guard this). Tracing never influences placement decisions — golden and
// metamorphic suites, internal/oracle's TestIndexedVsBruteForcePlacement
// and internal/pdcs's TestExtractAllBenchTiers assert traced and untraced
// solves place bit-for-bit identically.
//
// The package reads the wall clock (time.Now carries the monotonic
// reading) and declares the wallclock-lint exemption below: it is a
// measurement layer, like internal/expt, injected into the otherwise
// deterministic pipeline by the caller.
//
//hipo:allow-wallclock span durations are the tracer's purpose; timing never feeds back into placement
package hipotrace

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names used by the pipeline. Binaries and servers key histograms
// and pprof labels off these exact strings.
const (
	// StageDiscretize is candidate-position generation (Section 4.1).
	StageDiscretize = "discretize"
	// StagePDCS is the rotating sweep plus dominance filtering (Section 4.2).
	StagePDCS = "pdcs"
	// StageGreedy is strategy selection (Section 4.3).
	StageGreedy = "greedy"
)

// LabelStage is the pprof label key carrying the stage name; LabelDetail
// carries the span's free-form label (charger type, greedy variant).
const (
	LabelStage  = "hipo_stage"
	LabelDetail = "hipo_detail"
)

// Counter identifies one pipeline counter. Counters are fixed at compile
// time so hot loops pay an array index, not a map lookup.
type Counter int

// Pipeline counters.
const (
	// CtrLOSQueries counts line-of-sight queries answered during
	// eligibility checks and hole-ray extraction.
	CtrLOSQueries Counter = iota
	// CtrFeasibilityQueries counts placement-feasibility (region +
	// point-in-obstacle) checks during candidate generation.
	CtrFeasibilityQueries
	// CtrPowerLevels counts piecewise power levels K built across
	// (charger type, device type) pairs (Lemma 4.1).
	CtrPowerLevels
	// CtrCandidatePositions counts candidate positions swept (Algorithm 2).
	CtrCandidatePositions
	// CtrCandidatesRaw counts candidate strategies before dominance
	// filtering; CtrCandidatesKept after (Algorithm 2 step 9).
	CtrCandidatesRaw
	CtrCandidatesKept
	// CtrGainEvals counts marginal-gain evaluations across all greedy
	// variants; CtrLazyReevals counts the subset that were lazy-heap
	// re-evaluations (CELF pops whose cached gain was stale);
	// CtrLazyFreshHits counts pops selected without touching the rest of
	// the heap (the CELF fast path).
	CtrGainEvals
	CtrLazyReevals
	CtrLazyFreshHits
	// CtrVisMemoHits / CtrVisMemoMisses count the per-viewpoint
	// shadow/event-angle/hole-ray memo cache of internal/visindex.
	CtrVisMemoHits
	CtrVisMemoMisses
	// CtrPairsPruned counts device pairs skipped by the spatial device-grid
	// prefilter before critical-construction enumeration (Algorithm 2): the
	// pair's padded reachability disks provably cannot interact, so the
	// exact pairwise geometry is never touched.
	CtrPairsPruned
	// CtrLOSCertified counts PDCS line-of-sight queries a device's
	// visindex.Certificate decided without the exact predicate.
	CtrLOSCertified
	// CtrLOSExact counts PDCS line-of-sight queries the exact predicate
	// decided: CtrLOSCertified + CtrLOSExact = CtrLOSQueries.
	CtrLOSExact
	// CtrPoolReuse counts buffer reuses out of the extraction pools: the
	// per-chunk state of PDCS sweep chunks (eligibility slice, Covers arena,
	// raw candidate buffer and chunk reducer, reused together as one count)
	// and discretization's position and scratch buffers. Each reuse is a
	// set of hot-loop allocations avoided.
	CtrPoolReuse
	// CtrLazyWarmHits counts CELF heap seeds taken from a warm-start prior
	// gain table (GreedyLazyWarm) instead of being recomputed: each hit is
	// one round-0 gain evaluation avoided on an incremental re-solve.
	CtrLazyWarmHits
	// CtrPositionsRaw counts positions entering discretization's dedup
	// (every task's feasible positions, cached session tasks included):
	// the first stage of the candidate funnel, ≥ CtrCandidatePositions.
	CtrPositionsRaw

	// NumCounters is the number of defined counters.
	NumCounters
)

// counterNames maps Counter IDs to the stable snake_case names used in
// JSON breakdowns, metrics, and docs (DESIGN.md "Trace taxonomy").
var counterNames = [NumCounters]string{
	CtrLOSQueries:         "los_queries",
	CtrFeasibilityQueries: "feasibility_queries",
	CtrPowerLevels:        "power_levels",
	CtrCandidatePositions: "candidate_positions",
	CtrCandidatesRaw:      "candidates_raw",
	CtrCandidatesKept:     "candidates_kept",
	CtrGainEvals:          "gain_evals",
	CtrLazyReevals:        "lazy_reevals",
	CtrLazyFreshHits:      "lazy_fresh_hits",
	CtrVisMemoHits:        "vis_memo_hits",
	CtrVisMemoMisses:      "vis_memo_misses",
	CtrPairsPruned:        "pairs_pruned",
	CtrLOSCertified:       "los_certified",
	CtrLOSExact:           "los_exact",
	CtrPoolReuse:          "pool_reuse",
	CtrLazyWarmHits:       "lazy_warm_hits",
	CtrPositionsRaw:       "positions_raw",
}

// Name returns the counter's stable snake_case name.
func (c Counter) Name() string {
	if c < 0 || c >= NumCounters {
		return fmt.Sprintf("counter_%d", int(c))
	}
	return counterNames[c]
}

// span is one recorded stage interval, as monotonic offsets from the
// tracer's epoch.
type span struct {
	stage, label string
	start, end   time.Duration
}

// Tracer collects spans and counters for one solve. Create with New and
// pass by pointer; a nil Tracer disables all collection. Safe for
// concurrent use — pipeline stages may emit spans and counters from
// worker goroutines.
type Tracer struct {
	epoch time.Time

	ctr [NumCounters]atomic.Int64

	mu sync.Mutex
	// guarded by mu
	spans []span
}

// New returns an empty tracer whose epoch is now.
func New() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Enabled reports whether the tracer collects (i.e. is non-nil). Pipeline
// code uses it to skip preparing label strings on the no-tracer path.
func (t *Tracer) Enabled() bool { return t != nil }

// Add adds n to a counter. Nil-safe and allocation-free.
func (t *Tracer) Add(c Counter, n int64) {
	if t == nil || n == 0 {
		return
	}
	t.ctr[c].Add(n)
}

// Counters returns a snapshot of all counter values.
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	out := make(map[string]int64, NumCounters)
	for c := Counter(0); c < NumCounters; c++ {
		if v := t.ctr[c].Load(); v != 0 {
			out[c.Name()] = v
		}
	}
	return out
}

// nop is the end function returned by StartStage on a nil tracer;
// predeclared so the nil path allocates nothing.
var nop = func() {}

// setGoroutineLabels is pprof.SetGoroutineLabels, swappable in tests to
// observe the applied label sets (the runtime offers no public read-back).
var setGoroutineLabels = pprof.SetGoroutineLabels

// StartStage begins a span for the named stage and applies pprof goroutine
// labels (LabelStage=stage, LabelDetail=label) so CPU profile samples —
// including those of goroutines spawned inside the stage — are
// attributable to it. The returned function ends the span and clears the
// labels; call it on the same goroutine that called StartStage. Stages are
// sequential in the pipeline, so spans do not nest on one goroutine.
func (t *Tracer) StartStage(stage, label string) func() {
	if t == nil {
		return nop
	}
	start := time.Since(t.epoch)
	// pprof labels only attach through a context; the tracer is a leaf
	// observability layer with no cancellation role, so a root context is
	// the correct carrier here.
	//lint:ignore ctxflow pprof goroutine labels need a context carrier; it carries no cancellation and never crosses an API boundary
	ctx := pprof.WithLabels(context.Background(), pprof.Labels(LabelStage, stage, LabelDetail, label))
	setGoroutineLabels(ctx)
	return func() {
		end := time.Since(t.epoch)
		//lint:ignore ctxflow restoring the empty pprof label set, not severing any cancellation chain
		setGoroutineLabels(context.Background())
		t.mu.Lock()
		t.spans = append(t.spans, span{stage: stage, label: label, start: start, end: end})
		t.mu.Unlock()
	}
}

// StageMs is one span in a breakdown, with its duration in milliseconds.
type StageMs struct {
	Stage string  `json:"stage"`
	Label string  `json:"label,omitempty"`
	Ms    float64 `json:"ms"`
}

// Breakdown is the JSON-ready summary of a traced solve: the individual
// spans in start order, per-stage duration totals, and the counters.
type Breakdown struct {
	// TotalMs is the wall time from the tracer's creation to the end of
	// its last span.
	TotalMs float64 `json:"total_ms"`
	// Stages lists every recorded span in start order.
	Stages []StageMs `json:"stages,omitempty"`
	// StageTotalsMs sums span durations by stage name
	// (discretize/pdcs/greedy/...).
	StageTotalsMs map[string]float64 `json:"stage_totals_ms,omitempty"`
	// Counters holds the non-zero pipeline counters by name.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Breakdown summarizes everything collected so far. Safe to call while
// stages are still running; in-flight spans are simply absent. Returns nil
// on a nil tracer.
func (t *Tracer) Breakdown() *Breakdown {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	b := &Breakdown{Counters: t.Counters()}
	if len(b.Counters) == 0 {
		b.Counters = nil
	}
	var last time.Duration
	for _, s := range spans {
		d := (s.end - s.start).Seconds() * 1e3
		b.Stages = append(b.Stages, StageMs{Stage: s.stage, Label: s.label, Ms: d})
		if b.StageTotalsMs == nil {
			b.StageTotalsMs = make(map[string]float64)
		}
		b.StageTotalsMs[s.stage] += d
		if s.end > last {
			last = s.end
		}
	}
	b.TotalMs = last.Seconds() * 1e3
	return b
}

// String renders the breakdown as an aligned human-readable table — the
// format cmd/hipo -trace prints.
func (b *Breakdown) String() string {
	if b == nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-14s %10s\n", "stage", "label", "ms")
	for _, s := range b.Stages {
		fmt.Fprintf(&sb, "%-12s %-14s %10.3f\n", s.Stage, s.Label, s.Ms)
	}
	fmt.Fprintf(&sb, "%-12s %-14s %10.3f\n", "total", "", b.TotalMs)
	if len(b.Counters) > 0 {
		names := make([]string, 0, len(b.Counters))
		for name := range b.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		sb.WriteString("counters:")
		for _, name := range names {
			fmt.Fprintf(&sb, " %s=%d", name, b.Counters[name])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
