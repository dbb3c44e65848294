// Package serve implements the hiposerve HTTP service: sync/async solve
// endpoints for every objective, an LRU solve cache keyed by scenario
// content hash, a bounded worker-pool job queue with admission control,
// Prometheus-style metrics, and optional pprof endpoints. cmd/hiposerve is
// a thin flag-parsing wrapper around this package; cmd/hipoload embeds the
// same server in-process behind an httptest listener to drive load and
// soak runs against the exact production handler stack.
//
//hipo:allow-wallclock request deadlines and latency observation require real time
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"time"

	"hipo"
	"hipo/internal/jobs"
	"hipo/internal/model"
	"hipo/internal/servemetrics"
	"hipo/internal/solvecache"
)

// Config tunes the serving layer.
type Config struct {
	// Workers is the async worker-pool size; QueueDepth bounds the number
	// of jobs waiting for a worker.
	Workers    int
	QueueDepth int
	// CacheSize is the solve-cache capacity in entries.
	CacheSize int
	// ScenarioCapacity bounds the scenario registry (entries beyond it are
	// evicted least-recently-used, which can break long mutation chains —
	// an incremental solve across a broken link falls back to a cold run).
	ScenarioCapacity int
	// SyncTimeout is the request deadline for synchronous solves;
	// JobTimeout (0 = none) bounds each async job.
	SyncTimeout time.Duration
	JobTimeout  time.Duration
	// SyncDeviceLimit is the auto-mode threshold: scenarios with at most
	// this many devices solve inline, larger ones are queued.
	SyncDeviceLimit int
	// JobRetainTTL and JobMaxTerminal bound how long finished jobs stay
	// pollable: terminal jobs older than the TTL, or beyond the newest
	// JobMaxTerminal, are evicted from the manager (0 = unbounded).
	JobRetainTTL   time.Duration
	JobMaxTerminal int
	// SlowSolve is the threshold above which a completed solve emits a
	// structured warning with its per-stage breakdown (0 = disabled).
	SlowSolve time.Duration
	// EnablePprof exposes the /debug/pprof/* profiling endpoints. The solve
	// pipeline labels its goroutines by stage (hipo_stage/hipo_detail), so
	// CPU profiles taken here attribute samples to discretize/pdcs/greedy.
	EnablePprof bool
	Logger      *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.ScenarioCapacity <= 0 {
		c.ScenarioCapacity = 64
	}
	if c.SyncTimeout <= 0 {
		c.SyncTimeout = 30 * time.Second
	}
	if c.SyncDeviceLimit <= 0 {
		c.SyncDeviceLimit = 64
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server wires the job manager, solve cache, and metrics registry behind
// the HTTP mux.
type Server struct {
	cfg       Config
	jobs      *jobs.Manager
	cache     *solvecache.Cache
	scenarios *scenarioStore
	reg       *servemetrics.Registry
	log       *slog.Logger
	mux       *http.ServeMux

	cacheHits    *servemetrics.Counter
	cacheMisses  *servemetrics.Counter
	jobsQueued   *servemetrics.Counter
	jobsEvicted  *servemetrics.Counter
	jobsRejected *servemetrics.Counter
	incAdvanced  *servemetrics.Counter
	incRebuilt   *servemetrics.Counter
}

// New builds a fully wired server from cfg. ctx is the base context for
// async jobs: canceling it interrupts every queued and running solve.
func New(ctx context.Context, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		cache:     solvecache.New(cfg.CacheSize),
		scenarios: newScenarioStore(cfg.ScenarioCapacity),
		reg:       servemetrics.NewRegistry(),
		log:       cfg.Logger,
		mux:       http.NewServeMux(),
	}
	s.cacheHits = s.reg.Counter("hiposerve_cache_hits_total",
		"Solve-cache hits across all solve endpoints.")
	s.cacheMisses = s.reg.Counter("hiposerve_cache_misses_total",
		"Solve-cache misses across all solve endpoints.")
	s.jobsQueued = s.reg.Counter("hiposerve_jobs_submitted_total",
		"Async jobs accepted into the queue.")
	s.jobsEvicted = s.reg.Counter("hiposerve_jobs_evicted_total",
		"Terminal jobs evicted by the retention policy (TTL or cap).")
	s.jobsRejected = s.reg.Counter("hiposerve_jobs_rejected_total",
		"Async submits load-shed with 429 because the queue was saturated.")
	s.incAdvanced = s.reg.Counter("hiposerve_incremental_advanced_total",
		"Incremental solves that reused a live session by replaying a mutation chain.")
	s.incRebuilt = s.reg.Counter("hiposerve_incremental_rebuilt_total",
		"Incremental solves that had to build a session cold.")
	s.jobs = jobs.NewManager(ctx, jobs.Config{
		Workers:     cfg.Workers,
		Depth:       cfg.QueueDepth,
		JobTimeout:  cfg.JobTimeout,
		RetainTTL:   cfg.JobRetainTTL,
		MaxTerminal: cfg.JobMaxTerminal,
		OnEvict:     func(n int) { s.jobsEvicted.Add(uint64(n)) },
	})
	s.reg.Gauge("hiposerve_jobs_tracked",
		"Jobs currently tracked by the manager (all states).",
		func() float64 { return float64(s.jobs.Len()) })
	s.reg.Gauge("hiposerve_cache_entries",
		"Entries currently held by the solve cache.",
		func() float64 { _, _, n := s.cache.Stats(); return float64(n) })
	s.reg.Gauge("hiposerve_cache_hit_ratio",
		"Fraction of solve lookups answered from the cache (0 before any).",
		func() float64 {
			hits, misses, _ := s.cache.Stats()
			if hits+misses == 0 {
				return 0
			}
			return float64(hits) / float64(hits+misses)
		})
	s.reg.Gauge("hiposerve_scenarios_tracked",
		"Scenarios currently held by the registry.",
		func() float64 { return float64(s.scenarios.len()) })
	s.reg.Gauge("hiposerve_jobs_queue_depth",
		"Jobs buffered in the queue awaiting a worker.",
		func() float64 { return float64(s.jobs.QueueDepth()) })
	s.reg.Gauge("hiposerve_jobs_active",
		"Jobs in a non-terminal state (pending or running).",
		func() float64 { return float64(s.jobs.Counts().Active()) })
	// Process-health gauges for soak testing: cmd/hipoload diffs these
	// across a run to assert the server neither leaks goroutines nor grows
	// its heap without bound. ReadMemStats stops the world, but only at
	// scrape frequency.
	s.reg.Gauge("hiposerve_go_goroutines",
		"Live goroutines in the serving process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	s.reg.Gauge("hiposerve_go_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/solve", s.instrument("/v1/solve",
		s.solveHandler("/v1/solve", runSolve)))
	s.mux.HandleFunc("POST /v1/solve/budgeted", s.instrument("/v1/solve/budgeted",
		s.solveHandler("/v1/solve/budgeted", runBudgeted)))
	s.mux.HandleFunc("POST /v1/solve/maxmin", s.instrument("/v1/solve/maxmin",
		s.solveHandler("/v1/solve/maxmin", runMaxMin)))
	s.mux.HandleFunc("POST /v1/solve/propfair", s.instrument("/v1/solve/propfair",
		s.solveHandler("/v1/solve/propfair", runPropFair)))
	s.mux.HandleFunc("POST /v1/scenarios", s.instrument("/v1/scenarios", s.handleScenarioRegister))
	s.mux.HandleFunc("GET /v1/scenarios/{hash}", s.instrument("/v1/scenarios", s.handleScenarioGet))
	s.mux.HandleFunc("POST /v1/scenarios/{hash}/mutate", s.instrument("/v1/scenarios/mutate", s.handleScenarioMutate))
	s.mux.HandleFunc("POST /v1/scenarios/{hash}/solve", s.instrument("/v1/scenarios/solve", s.handleScenarioSolve))
	s.mux.HandleFunc("POST /v1/evaluate", s.instrument("/v1/evaluate", s.handleEvaluate))
	s.mux.HandleFunc("POST /v1/redeploy", s.instrument("/v1/redeploy", s.handleRedeploy))
	s.mux.HandleFunc("POST /v1/diagnostics", s.instrument("/v1/diagnostics", s.handleDiagnostics))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs", s.handleJobGet))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("/v1/jobs", s.handleJobCancel))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.EnablePprof {
		// Deliberately not instrumented: profile downloads can run for tens
		// of seconds and would distort the request-latency histograms.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// Handler returns the root HTTP handler for mounting on a listener.
func (s *Server) Handler() http.Handler { return s.mux }

// statusWriter captures the response code for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request counting, latency observation,
// and structured logging.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.reg.Counter("hiposerve_requests_total",
		"HTTP requests by endpoint.", "endpoint", endpoint)
	errs := s.reg.Counter("hiposerve_request_errors_total",
		"HTTP responses with status >= 400, by endpoint.", "endpoint", endpoint)
	lat := s.reg.Histogram("hiposerve_request_seconds",
		"Request latency in seconds, by endpoint.", nil, "endpoint", endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		elapsed := time.Since(start)
		reqs.Inc()
		lat.Observe(elapsed.Seconds())
		if sw.status >= 400 {
			errs.Inc()
		}
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration_ms", float64(elapsed.Microseconds())/1000,
			"cache", sw.Header().Get("X-Cache"),
			"remote", r.RemoteAddr,
		)
	}
}

// SolveOptions is the JSON options envelope shared by the solve endpoints;
// it mirrors the library's functional options.
type SolveOptions struct {
	// Eps is the approximation parameter ε ∈ (0, 0.5); 0 means the
	// library default.
	Eps float64 `json:"eps,omitempty"`
	// PerType selects the paper's Algorithm 3 greedy.
	PerType bool `json:"per_type,omitempty"`
	// Continuous selects the continuous greedy (1 − 1/e − ε, slow).
	Continuous bool `json:"continuous,omitempty"`
	// Workers bounds solver goroutines (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Trace includes the per-stage timing/counter breakdown in the
	// placement response (and in the async job result). It participates in
	// the cache key, so traced and untraced responses never alias.
	Trace bool `json:"trace,omitempty"`
}

func (o SolveOptions) validate() error {
	// The range test is written positively so a NaN eps (which fails every
	// comparison) cannot sneak through as "in range".
	if o.Eps != 0 && !(o.Eps > 0 && o.Eps < 0.5) {
		return model.Errorf("options.eps", "must be in (0, 0.5), got %v", o.Eps)
	}
	if o.Workers < 0 {
		return model.Errorf("options.workers", "must be >= 0, got %d", o.Workers)
	}
	if o.PerType && o.Continuous {
		return model.Errorf("options", "per_type and continuous are mutually exclusive")
	}
	return nil
}

func (o SolveOptions) libOptions(ctx context.Context) []hipo.Option {
	opts := []hipo.Option{hipo.WithWorkers(o.Workers), hipo.WithContext(ctx)}
	if o.Eps != 0 {
		opts = append(opts, hipo.WithEps(o.Eps))
	}
	if o.PerType {
		opts = append(opts, hipo.WithPerTypeGreedy())
	}
	if o.Continuous {
		opts = append(opts, hipo.WithContinuousGreedy())
	}
	return opts
}

// SolveRequest is the request envelope of the four solve endpoints. Mode
// selects sync (inline, request deadline), async (queued job), or auto
// (the default: sync for scenarios at most SyncDeviceLimit devices).
type SolveRequest struct {
	Scenario *hipo.Scenario `json:"scenario"`
	Options  SolveOptions   `json:"options"`
	Mode     string         `json:"mode,omitempty"`
	// Budget configures /v1/solve/budgeted.
	Budget *hipo.DeploymentBudget `json:"budget,omitempty"`
	// Iterations and Seed configure /v1/solve/maxmin.
	Iterations int   `json:"iterations,omitempty"`
	Seed       int64 `json:"seed,omitempty"`

	// tracer is attached by execSolve so stage histograms and slow-solve
	// logs cover every solve, whether or not the client asked for a trace.
	tracer *hipo.Tracer
}

// libOptions merges the client options with the server-attached tracer.
func (r *SolveRequest) libOptions(ctx context.Context) []hipo.Option {
	opts := r.Options.libOptions(ctx)
	if r.tracer != nil {
		opts = append(opts, hipo.WithTracer(r.tracer))
	}
	return opts
}

// solveFn executes one solve variant under the given context.
type solveFn func(ctx context.Context, req *SolveRequest) (*hipo.Placement, error)

func runSolve(ctx context.Context, req *SolveRequest) (*hipo.Placement, error) {
	return req.Scenario.Solve(req.libOptions(ctx)...)
}

func runBudgeted(ctx context.Context, req *SolveRequest) (*hipo.Placement, error) {
	if req.Budget == nil {
		return nil, model.Errorf("budget", "is required")
	}
	return req.Scenario.SolveBudgeted(*req.Budget, req.libOptions(ctx)...)
}

func runMaxMin(ctx context.Context, req *SolveRequest) (*hipo.Placement, error) {
	return req.Scenario.SolveMaxMin(req.Iterations, req.Seed, req.libOptions(ctx)...)
}

func runPropFair(ctx context.Context, req *SolveRequest) (*hipo.Placement, error) {
	return req.Scenario.SolveProportionalFair(req.libOptions(ctx)...)
}

// present answers 400 at field, and reports false, when its value is
// absent from the request.
func present(w http.ResponseWriter, field string, ok bool) bool {
	if !ok {
		writeError(w, http.StatusBadRequest, model.Errorf(field, "is required"))
	}
	return ok
}

const maxRequestBytes = 32 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

// writeError answers status with err's message. An input rejection, by serve
// or by the library, is a *model.FieldError whose path, rooted at the
// request field holding the input, goes out as "field".
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body := map[string]string{"error": err.Error()}
	var fe *model.FieldError
	if errors.As(err, &fe) {
		body["field"] = fe.Path
	}
	// The status line is already on the wire; an encode failure here means
	// the client went away.
	_ = json.NewEncoder(w).Encode(body)
}

// cacheKey derives the canonical key: endpoint + scenario content hash +
// the solver-relevant request fields (mode excluded — it changes where the
// solve runs, not its result).
func (s *Server) cacheKey(endpoint string, req *SolveRequest) (string, error) {
	sh, err := req.Scenario.ScenarioHash()
	if err != nil {
		return "", err
	}
	extra, err := json.Marshal(struct {
		Options    SolveOptions           `json:"options"`
		Budget     *hipo.DeploymentBudget `json:"budget,omitempty"`
		Iterations int                    `json:"iterations,omitempty"`
		Seed       int64                  `json:"seed,omitempty"`
	}{req.Options, req.Budget, req.Iterations, req.Seed})
	if err != nil {
		return "", err
	}
	return solvecache.Key(endpoint, sh, string(extra)), nil
}

// solveHandler serves one solve variant with cache-first lookup and
// sync/async dispatch.
func (s *Server) solveHandler(endpoint string, run solveFn) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req SolveRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if !present(w, "scenario", req.Scenario != nil) {
			return
		}
		if err := req.Options.validate(); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		switch req.Mode {
		case "", "auto", "sync", "async":
		default:
			writeError(w, http.StatusBadRequest,
				model.Errorf("mode", "must be sync, async, or auto; got %q", req.Mode))
			return
		}
		if req.Iterations < 0 {
			writeError(w, http.StatusBadRequest,
				model.Errorf("iterations", "must be >= 0, got %d", req.Iterations))
			return
		}
		// Checked up front, not left to the solve, so an async request is
		// rejected before it queues.
		if req.Budget != nil {
			if err := req.Budget.Validate(); err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
		}
		if err := req.Scenario.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}

		key, err := s.cacheKey(endpoint, &req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if body, ok := s.cache.Get(key); ok {
			s.cacheHits.Inc()
			w.Header().Set("X-Cache", "hit")
			w.Header().Set("Content-Type", "application/json")
			w.Write(body)
			return
		}
		s.cacheMisses.Inc()

		async := req.Mode == "async" ||
			(req.Mode == "" || req.Mode == "auto") &&
				len(req.Scenario.Devices) > s.cfg.SyncDeviceLimit
		if async {
			s.enqueueSolve(w, endpoint, key, &req, run)
			return
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SyncTimeout)
		defer cancel()
		body, err := s.execSolve(ctx, endpoint, key, &req, run)
		if err != nil {
			writeSolveError(w, err)
			return
		}
		w.Header().Set("X-Cache", "miss")
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}
}

// writeSolveError maps a failed solve: an input rejection (*model.FieldError)
// to 400, a deadline to 504, a cancellation to 503, anything else to 500.
func writeSolveError(w http.ResponseWriter, err error) {
	var bad *model.FieldError
	switch {
	case errors.As(err, &bad):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// execSolve runs the solve under a tracer, serializes the placement, and
// fills the cache so identical re-submissions return byte-identical bodies.
// Every solve is traced server-side to feed the per-stage histograms and
// the slow-solve log; the breakdown reaches the response body only when the
// client set options.trace.
func (s *Server) execSolve(ctx context.Context, endpoint, key string, req *SolveRequest, run solveFn) ([]byte, error) {
	req.tracer = hipo.NewTracer()
	placement, err := run(ctx, req)
	if err != nil {
		return nil, err
	}
	s.observeTrace(endpoint, req.tracer.Breakdown())
	if !req.Options.Trace {
		placement.Trace = nil
	}
	body, err := json.Marshal(placement)
	if err != nil {
		return nil, err
	}
	s.cache.Put(key, body)
	return body, nil
}

// observeTrace feeds the per-stage duration histograms and, above the
// configured threshold, emits one structured warning with the stage totals
// and pipeline counters so slow solves are diagnosable from logs alone.
func (s *Server) observeTrace(endpoint string, bd *hipo.TraceBreakdown) {
	if bd == nil {
		return
	}
	for stage, ms := range bd.StageTotalsMs {
		s.reg.Histogram("hiposerve_solve_stage_seconds",
			"Solve wall time per pipeline stage in seconds.",
			nil, "stage", stage).Observe(ms / 1000)
	}
	if s.cfg.SlowSolve <= 0 || bd.TotalMs < s.cfg.SlowSolve.Seconds()*1000 {
		return
	}
	args := []any{"endpoint", endpoint, "total_ms", bd.TotalMs}
	for _, stage := range []string{"discretize", "pdcs", "greedy"} {
		if ms, ok := bd.StageTotalsMs[stage]; ok {
			args = append(args, "stage_"+stage+"_ms", ms)
		}
	}
	names := make([]string, 0, len(bd.Counters))
	for name := range bd.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		args = append(args, name, bd.Counters[name])
	}
	s.log.Warn("slow solve", args...)
}

// enqueueSolve submits the solve as an async job and answers 202 with the
// job's polling URL.
func (s *Server) enqueueSolve(w http.ResponseWriter, endpoint, key string, req *SolveRequest, run solveFn) {
	id, err := s.jobs.Submit(func(ctx context.Context) (any, error) {
		body, err := s.execSolve(ctx, endpoint, key, req, run)
		if err != nil {
			return nil, err
		}
		return json.RawMessage(body), nil
	})
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		// Load-shed instead of blocking or 500ing: the queue is a fixed
		// buffer in front of a fixed worker pool, so the earliest a slot can
		// open is when the fastest queued solve finishes — clients should
		// back off rather than hammer. One second is deliberately coarse;
		// open-loop load generators treat any 429 as an overload signal.
		w.Header().Set("Retry-After", "1")
		s.jobsRejected.Inc()
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, jobs.ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.jobsQueued.Inc()
	writeJSON(w, http.StatusAccepted, map[string]string{
		"job_id":     id,
		"status_url": "/v1/jobs/" + id,
	})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// EvaluateRequest scores an existing placement on a scenario.
type EvaluateRequest struct {
	Scenario  *hipo.Scenario  `json:"scenario"`
	Placement *hipo.Placement `json:"placement"`
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if !present(w, "scenario", req.Scenario != nil) || !present(w, "placement", req.Placement != nil) {
		return
	}
	m, err := req.Scenario.Evaluate(req.Placement)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// RedeployRequest plans a migration between two placements.
type RedeployRequest struct {
	Scenario *hipo.Scenario    `json:"scenario"`
	Old      *hipo.Placement   `json:"old"`
	New      *hipo.Placement   `json:"new"`
	Cost     hipo.RedeployCost `json:"cost"`
	// MinMax selects the bottleneck objective of Section 8.1.2 instead of
	// minimum total cost.
	MinMax bool `json:"minmax,omitempty"`
}

func (s *Server) handleRedeploy(w http.ResponseWriter, r *http.Request) {
	var req RedeployRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if !present(w, "scenario", req.Scenario != nil) || !present(w, "old", req.Old != nil) ||
		!present(w, "new", req.New != nil) {
		return
	}
	var plan *hipo.RedeployPlan
	var err error
	if req.MinMax {
		plan, err = req.Scenario.RedeployMinMax(req.Old, req.New, req.Cost)
	} else {
		plan, err = req.Scenario.RedeployMinTotal(req.Old, req.New, req.Cost)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, plan)
}

// DiagnosticsRequest asks for reachability diagnostics; Eps, when
// positive, additionally reports per-pair feasible cell counts.
type DiagnosticsRequest struct {
	Scenario *hipo.Scenario `json:"scenario"`
	Eps      float64        `json:"eps,omitempty"`
}

// DiagnosticsResponse reports which devices are reachable and how much
// placement area each (charger type, device) pair admits.
type DiagnosticsResponse struct {
	UnreachableDevices []int `json:"unreachable_devices"`
	// FeasibleArea[q][j] is the area where charger type q can be placed to
	// charge device j with non-zero power.
	FeasibleArea [][]float64 `json:"feasible_area"`
	// CellCounts[q][j] is the number of feasible geometric areas at the
	// requested eps; present only when eps was given.
	CellCounts [][]int `json:"cell_counts,omitempty"`
}

func (s *Server) handleDiagnostics(w http.ResponseWriter, r *http.Request) {
	var req DiagnosticsRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if !present(w, "scenario", req.Scenario != nil) {
		return
	}
	if req.Eps != 0 && !(req.Eps > 0 && req.Eps < 1) {
		writeError(w, http.StatusBadRequest,
			model.Errorf("eps", "must be in (0, 1), got %v", req.Eps))
		return
	}
	sc := req.Scenario
	un, err := sc.UnreachableDevices()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := DiagnosticsResponse{UnreachableDevices: un}
	if resp.UnreachableDevices == nil {
		resp.UnreachableDevices = []int{}
	}
	for q := range sc.ChargerTypes {
		row := make([]float64, len(sc.Devices))
		for j := range sc.Devices {
			if row[j], err = sc.FeasibleArea(q, j); err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
		}
		resp.FeasibleArea = append(resp.FeasibleArea, row)
	}
	if req.Eps != 0 {
		for q := range sc.ChargerTypes {
			row := make([]int, len(sc.Devices))
			for j := range sc.Devices {
				if row[j], err = sc.FeasibleCellCount(q, j, req.Eps); err != nil {
					writeError(w, http.StatusBadRequest, err)
					return
				}
			}
			resp.CellCounts = append(resp.CellCounts, row)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A scrape whose client vanished mid-response is not actionable.
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Shutdown drains the job queue after the HTTP listener has stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.jobs.Shutdown(ctx)
}
