package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hipo"
	"hipo/internal/corpus"
	"hipo/internal/loadrun"
	"hipo/internal/serve"
)

const (
	serveClients = 2
	// A client's round follows loadrun.DefaultMix (the repository's model
	// of online redeployment traffic) with its async and cancel shares
	// left out: sync solve 65 : evaluate 10 : register → mutate → solve
	// chain 5, i.e. 13 : 2 : 1, drawn as 130 sync solves, 20 evaluates and
	// 10 chains. The sync solves are serveDistinct scenarios, each sighted
	// once (a cache miss) and repeated serveRepeats times (cache hits), so
	// 104 of a client's 180 requests (a chain is three) are hits. Hits must
	// be more than half of the requests for op_p50_ms to land on the hit
	// path; the misses (26 sync, 10 chain solves: 20% of requests) hold
	// op_tail_ms on the miss path.
	serveDistinct  = 26
	serveRepeats   = 4
	serveEvaluates = 20
	// serveDraws is how many corpus items per family are drawn to find
	// every wanted device count.
	serveDraws = 40
	// serveReplays is how often the traced run replays each solve body
	// through decode, validate, hash and encode.
	serveReplays = 20
)

// serveFamilies are the corpus solve families whose scenarios have 5–8
// devices. Distinct scenario i is drawn from family i mod 6 with
// serveDevices[(i/6) mod 4] devices; fixing the device counts keeps a
// round's cost nearly the same from seed to seed.
var serveFamilies = []string{
	"sparse-obstacles", "dense-obstacles", "uniform-devices",
	"clustered-devices", "corridor-devices", "single-type",
}

var (
	serveDevices = []int{5, 6, 7, 8}
	// serveChainDevices sizes the chains' scenarios, one chain each.
	serveChainDevices = []int{5, 6, 7, 8, 5, 6, 7, 8, 6, 7}
)

// serveFamilyDevices lists, per serveFamilies entry, the device counts of
// the distinct scenarios drawn from it.
func serveFamilyDevices() [][]int {
	want := make([][]int, len(serveFamilies))
	for i := 0; i < serveDistinct; i++ {
		f := i % len(serveFamilies)
		want[f] = append(want[f], serveDevices[(i/len(serveFamilies))%len(serveDevices)])
	}
	return want
}

// pickByDevices takes, for each wanted device count, the first unused item
// with that many devices (or, failing that, the first unused item).
func pickByDevices(items []corpus.Item, want []int) []corpus.Item {
	used := make([]bool, len(items))
	var out []corpus.Item
	for _, n := range want {
		pick := -1
		for i, it := range items {
			if used[i] {
				continue
			}
			if pick < 0 {
				pick = i
			}
			if len(it.Scenario.Devices) == n {
				pick = i
				break
			}
		}
		if pick >= 0 {
			used[pick] = true
			out = append(out, items[pick])
		}
	}
	return out
}

// Capacities the server is built with. The plan stays under both, so no
// LRU eviction ever happens and hits and misses are set by the plan alone
// (checked in servePlans).
const (
	serveCacheCapacity    = 256
	serveRegistryCapacity = 64
)

// serveOp is one planned HTTP request with its expected response.
type serveOp struct {
	Kind   string `json:"kind"`
	Path   string `json:"path"`
	Body   string `json:"body_sha256"`
	Status int    `json:"status"`
	Cache  string `json:"cache,omitempty"` // expected X-Cache header

	body []byte
	want []byte
}

// scenarioInfo and scenarioSolveResponse mirror the registry endpoints'
// response bodies, so expected bodies can be built from library results.
type scenarioInfo struct {
	ScenarioHash string `json:"scenario_hash"`
	Parent       string `json:"parent,omitempty"`
	Mutations    int    `json:"mutations,omitempty"`
	Devices      int    `json:"devices"`
	Obstacles    int    `json:"obstacles"`
}

type scenarioSolveResponse struct {
	ScenarioHash string                 `json:"scenario_hash"`
	Placement    json.RawMessage        `json:"placement"`
	Stats        *hipo.IncrementalStats `json:"stats,omitempty"`
}

// solveInput is one distinct /v1/solve scenario of a client's plan.
type solveInput struct {
	sc        *hipo.Scenario
	placement *hipo.Placement
	body      []byte // the /v1/solve request
	want      []byte // the expected response
}

// clientPlan is one client's round: its op sequence plus the inputs the
// traced run replays.
type clientPlan struct {
	ops    []serveOp
	solves []solveInput
	hits   int
	misses int
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data
	}
	return b
}

func bodyDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// clientSeed derives the corpus seed of one client from the run seed.
func clientSeed(seed int64, client int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "perfbench|serve-mix|%d|%d", seed, client)
	return int64(h.Sum64())
}

// buildPlan generates one client's round and its expected responses from
// library calls made here, outside any timed window.
func buildPlan(seed int64, client int) (*clientPlan, error) {
	cs := clientSeed(seed, client)
	opts := serve.SolveOptions{Eps: eps}
	libOpts := []hipo.Option{hipo.WithEps(eps)}
	if client == 1 {
		// Distinct solver options per client give each client its own cache
		// keys and its own incremental session slot, so one client's
		// interleaving can never turn the other's miss into a hit.
		opts.Workers = 2
		libOpts = append(libOpts, hipo.WithWorkers(2))
	}
	pl := &clientPlan{}

	var items []corpus.Item
	for f, want := range serveFamilyDevices() {
		c, err := corpus.Generate(corpus.Config{Seed: cs, PerFamily: serveDraws, Families: []string{serveFamilies[f]}})
		if err != nil {
			return nil, err
		}
		items = append(items, pickByDevices(c.Items, want)...)
	}
	for _, it := range items {
		p, err := it.Scenario.Solve(libOpts...)
		if err != nil {
			return nil, fmt.Errorf("reference solve of %s: %w", it.Family, err)
		}
		pl.solves = append(pl.solves, solveInput{
			sc:        it.Scenario,
			placement: p,
			body:      mustJSON(serve.SolveRequest{Scenario: it.Scenario, Options: opts, Mode: "sync"}),
			want:      mustJSON(p),
		})
	}

	var units [][]serveOp
	for _, in := range pl.solves {
		for r := 0; r <= serveRepeats; r++ {
			units = append(units, []serveOp{{Kind: "solve", Path: "/v1/solve", Status: 200, body: in.body, want: in.want}})
		}
	}
	for i := 0; i < serveEvaluates; i++ {
		in := pl.solves[i%len(pl.solves)]
		m, err := in.sc.Evaluate(in.placement)
		if err != nil {
			return nil, err
		}
		units = append(units, []serveOp{{
			Kind: "evaluate", Path: "/v1/evaluate", Status: 200,
			body: mustJSON(serve.EvaluateRequest{Scenario: in.sc, Placement: in.placement}),
			want: mustJSON(m),
		}})
	}

	chains, err := corpus.Generate(corpus.Config{Seed: cs, PerFamily: serveDraws, Families: []string{"mutation-trace"}})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cs))
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	// Chains go to seeded positions but keep their serveChainDevices order,
	// so the session the registry still holds when a round ends is always
	// on a scenario of the same size.
	at := make([]int, len(serveChainDevices))
	for i := range at {
		at[i] = rng.Intn(len(units) + 1)
	}
	sort.Ints(at)
	for i, it := range pickByDevices(chains.Items, serveChainDevices) {
		chain, err := chainOps(it, opts, libOpts)
		if err != nil {
			return nil, err
		}
		k := at[i] + i
		units = append(units[:k], append([][]serveOp{chain}, units[k:]...)...)
	}
	seen := map[string]bool{}
	for _, u := range units {
		for _, op := range u {
			if op.Kind == "solve" {
				key := string(op.body)
				op.Cache = "hit"
				if !seen[key] {
					op.Cache = "miss"
					seen[key] = true
				}
			}
			switch op.Cache {
			case "hit":
				pl.hits++
			case "miss":
				pl.misses++
			}
			op.Body = bodyDigest(op.body)
			pl.ops = append(pl.ops, op)
		}
	}
	return pl, nil
}

// chainOps plans one register → mutate → solve chain of a mutation-trace
// corpus item, with the bodies the registry endpoints must answer.
func chainOps(it corpus.Item, opts serve.SolveOptions, libOpts []hipo.Option) ([]serveOp, error) {
	root := it.Hash
	inc, err := it.Scenario.NewIncremental()
	if err != nil {
		return nil, err
	}
	if err := inc.Apply(it.Mutations...); err != nil {
		return nil, err
	}
	child := inc.Scenario()
	childHash, err := child.ScenarioHash()
	if err != nil {
		return nil, err
	}
	// The registry solves a freshly registered child through a new session
	// built with the request's workers and eps.
	sess, err := child.NewIncremental(libOpts...)
	if err != nil {
		return nil, err
	}
	p, err := sess.Solve()
	if err != nil {
		return nil, err
	}
	stats := sess.Stats()
	return []serveOp{
		{
			Kind: "register", Path: "/v1/scenarios", Status: 201,
			body: mustJSON(map[string]any{"scenario": it.Scenario}),
			want: mustJSON(scenarioInfo{ScenarioHash: root, Devices: len(it.Scenario.Devices), Obstacles: len(it.Scenario.Obstacles)}),
		},
		{
			Kind: "mutate", Path: "/v1/scenarios/" + root + "/mutate", Status: 201,
			body: mustJSON(map[string]any{"mutations": it.Mutations}),
			want: mustJSON(scenarioInfo{
				ScenarioHash: childHash, Parent: root, Mutations: len(it.Mutations),
				Devices: len(child.Devices), Obstacles: len(child.Obstacles),
			}),
		},
		{
			Kind: "chain-solve", Path: "/v1/scenarios/" + childHash + "/solve", Status: 200, Cache: "miss",
			body: mustJSON(map[string]any{"options": opts}),
			want: mustJSON(scenarioSolveResponse{ScenarioHash: childHash, Placement: mustJSON(p), Stats: &stats}),
		},
	}, nil
}

// opResult is what one client saw for one op of a round.
type opResult struct {
	ms        float64
	handlerMs float64 // traced run only
	err       error
	cache     string
}

// servePlans builds both clients' plans and checks that they keep the
// server clear of eviction: distinct scenarios across clients, and fewer
// cache keys and registry entries per round than the server holds.
func servePlans(seed int64) ([serveClients]*clientPlan, error) {
	var plans [serveClients]*clientPlan
	hashes := map[string]bool{}
	misses, registry := 0, 0
	for c := range plans {
		pl, err := buildPlan(seed, c)
		if err != nil {
			return plans, fmt.Errorf("client %d plan: %w", c, err)
		}
		wantHits, wantMisses := serveDistinct*serveRepeats, serveDistinct+len(serveChainDevices)
		if pl.hits != wantHits || pl.misses != wantMisses || 2*pl.hits <= len(pl.ops) {
			return plans, fmt.Errorf("client %d plan has %d hits and %d misses in %d requests, want %d and %d, hits more than half",
				c, pl.hits, pl.misses, len(pl.ops), wantHits, wantMisses)
		}
		plans[c] = pl
		misses += pl.misses
		registry += 2 * len(serveChainDevices)
		for _, in := range pl.solves {
			h, err := in.sc.ScenarioHash()
			if err != nil {
				return plans, err
			}
			hashes[h] = true
		}
	}
	if len(hashes) != serveClients*serveDistinct {
		return plans, fmt.Errorf("the clients' solve scenarios are not %d distinct ones", serveClients*serveDistinct)
	}
	if misses > serveCacheCapacity || registry > serveRegistryCapacity {
		return plans, fmt.Errorf("plan exceeds the server's cache (%d keys) or registry (%d entries)", misses, registry)
	}
	return plans, nil
}

// runServe is the serve-mix workload. Every round runs against a fresh
// serve.New server (empty cache and registry) behind one loopback
// httptest server; both clients replay their fixed plan concurrently on
// their own keep-alive connection, so each round has the same hits,
// misses and responses.
func runServe(cfg runConfig, rec *recorder) error {
	plans, err := servePlans(cfg.seed)
	if err != nil {
		return err
	}
	hits, misses := 0, 0
	for c, pl := range plans {
		hits += pl.hits
		misses += pl.misses
		rec.note("client %d plan %s: %d ops per round (%d hits, %d misses)", c, planDigest(pl.ops), len(pl.ops), pl.hits, pl.misses)
	}

	var handler atomic.Pointer[http.Handler]
	var inflight atomic.Int64
	var handlerMs [serveClients][]float64
	for c, pl := range plans {
		handlerMs[c] = make([]float64, len(pl.ops))
	}
	front := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := *handler.Load()
		if !cfg.trace {
			h.ServeHTTP(w, r)
			return
		}
		inflight.Add(1)
		defer inflight.Add(-1)
		t := time.Now()
		h.ServeHTTP(w, r)
		ms := since(t)
		c, errC := strconv.Atoi(r.Header.Get("X-Perfbench-Client"))
		i, errI := strconv.Atoi(r.Header.Get("X-Perfbench-Op"))
		if errC == nil && errI == nil && c >= 0 && c < serveClients && i >= 0 && i < len(handlerMs[c]) {
			handlerMs[c][i] = ms
		}
	})
	ts := httptest.NewServer(front)
	defer ts.Close()
	clients := make([]*http.Client, serveClients)
	for c := range clients {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		clients[c] = &http.Client{Transport: tr, Timeout: 60 * time.Second}
	}
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))

	var tp traceServe
	results := make([][]opResult, serveClients)
	runtime.GC()
	for done := false; !done; {
		// One set-up sample per round: the server is built, wired and
		// answers its first request.
		t := time.Now()
		ctx, cancel := context.WithCancel(context.Background())
		srv := serve.New(ctx, serve.Config{Logger: logger, CacheSize: serveCacheCapacity, ScenarioCapacity: serveRegistryCapacity})
		h := srv.Handler()
		handler.Store(&h)
		if err := healthz(clients[0], ts.URL); err != nil {
			rec.violate("/healthz: %v", err)
		}
		rec.setup = append(rec.setup, since(t)/1e3)

		m := startMark()
		var wg sync.WaitGroup
		for c := range plans {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				results[c] = replay(clients[c], ts.URL, c, plans[c].ops, results[c][:0])
			}(c)
		}
		wg.Wait()
		rec.win.add(m)
		for inflight.Load() != 0 {
			runtime.Gosched()
		}

		for c, pl := range plans {
			for i, res := range results[c] {
				rec.lat = append(rec.lat, res.ms)
				if res.err == nil && res.cache != pl.ops[i].Cache {
					res.err = fmt.Errorf("%s %s: X-Cache %q, plan says %q", pl.ops[i].Kind, pl.ops[i].Path, res.cache, pl.ops[i].Cache)
				}
				rec.check(res.err)
				if cfg.trace {
					tp.observe(pl.ops[i], res, handlerMs[c][i])
				}
			}
		}
		rec.endRound()
		met, err := scrape(h)
		if err != nil {
			rec.violate("/metrics: %v", err)
		} else {
			gotHits := met["hiposerve_cache_hits_total"]
			gotMisses := met["hiposerve_cache_misses_total"]
			if gotHits != float64(hits) || gotMisses != float64(misses) {
				rec.violate("round cache counts %v hits / %v misses, plan says %d / %d", gotHits, gotMisses, hits, misses)
			}
			if cfg.trace {
				tp.scraped(met)
			}
		}

		// The retained heap is read with the last round's server, its
		// cache, registry and sessions still live, less the per-op sample
		// buffer, whose size follows the machine's speed.
		if done = rec.enough(); done {
			rec.retainedMB = (liveHeap() - float64(8*cap(rec.lat))) / 1e6
			runtime.KeepAlive(srv)
		}
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(sctx); err != nil {
			rec.violate("server shutdown: %v", err)
		}
		scancel()
		cancel()
	}
	runtime.KeepAlive(plans)

	if cfg.trace {
		tp.report(rec)
		var prof solveProfile
		for _, pl := range plans {
			for _, in := range pl.solves {
				tp.replay(in, rec)
				rec.check(prof.profile(in.sc, digest(in.placement.Chargers, in.placement.Utility)))
			}
		}
		tp.reportReplays(rec)
		prof.report(rec)
		rec.finishLayers()
	}
	return nil
}

// replay runs one client's op sequence on its connection, appending one
// result per op to out.
func replay(client *http.Client, base string, c int, ops []serveOp, out []opResult) []opResult {
	for i, op := range ops {
		req, err := http.NewRequest(http.MethodPost, base+op.Path, bytes.NewReader(op.body))
		if err != nil {
			out = append(out, opResult{err: err})
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Perfbench-Client", strconv.Itoa(c))
		req.Header.Set("X-Perfbench-Op", strconv.Itoa(i))
		t := time.Now()
		resp, err := client.Do(req)
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		res := opResult{ms: since(t), err: err}
		if err == nil {
			res.cache = resp.Header.Get("X-Cache")
			switch {
			case resp.StatusCode != op.Status:
				res.err = fmt.Errorf("%s %s: status %d, want %d: %s", op.Kind, op.Path, resp.StatusCode, op.Status, body)
			case !bytes.Equal(body, op.want):
				res.err = fmt.Errorf("%s %s: response body differs from the library result", op.Kind, op.Path)
			}
		}
		out = append(out, res)
	}
	return out
}

// healthz asks the server, over the client's connection, whether it is up.
func healthz(client *http.Client, base string) error {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// scrape reads the server's /metrics exposition straight from its handler.
func scrape(h http.Handler) (map[string]float64, error) {
	return loadrun.ScrapeMetrics(&http.Client{Transport: handlerTransport{h}}, "http://server")
}

// handlerTransport answers requests by calling a handler in process.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	w := httptest.NewRecorder()
	t.h.ServeHTTP(w, r)
	return w.Result(), nil
}

// traceServe accumulates the serve-mix layer figures.
type traceServe struct {
	hitMs, missMs       float64
	nHit, nMiss         int
	transportMs         float64
	nOps                int
	stageMs             map[string]float64
	stageSolves         float64
	cacheHits, cacheAll float64

	decodeMs, validateMs, hashMs, encodeMs float64
	nReplays                               int
}

func (tp *traceServe) observe(op serveOp, res opResult, handlerMs float64) {
	if res.err != nil {
		return
	}
	switch res.cache {
	case "hit":
		tp.hitMs += handlerMs
		tp.nHit++
	case "miss":
		tp.missMs += handlerMs
		tp.nMiss++
	}
	tp.transportMs += res.ms - handlerMs
	tp.nOps++
}

func (tp *traceServe) scraped(met map[string]float64) {
	if tp.stageMs == nil {
		tp.stageMs = map[string]float64{}
	}
	for _, stage := range []string{"discretize", "pdcs", "greedy"} {
		tp.stageMs[stage] += 1e3 * met[`hiposerve_solve_stage_seconds_sum{stage="`+stage+`"}`]
	}
	tp.stageSolves += met[`hiposerve_solve_stage_seconds_count{stage="greedy"}`]
	tp.cacheHits += met["hiposerve_cache_hits_total"]
	tp.cacheAll += met["hiposerve_cache_hits_total"] + met["hiposerve_cache_misses_total"]
}

func (tp *traceServe) report(rec *recorder) {
	div := func(a float64, n float64) float64 { return a / max(1, n) }
	rec.layer("serve.handler_hit_ms", div(tp.hitMs, float64(tp.nHit)), "ms")
	rec.layer("serve.handler_miss_ms", div(tp.missMs, float64(tp.nMiss)), "ms")
	rec.layer("http.transport_ms", div(tp.transportMs, float64(tp.nOps)), "ms")
	rec.layer("serve.solve_discretize_ms", div(tp.stageMs["discretize"], tp.stageSolves), "ms")
	rec.layer("serve.solve_pdcs_ms", div(tp.stageMs["pdcs"], tp.stageSolves), "ms")
	rec.layer("serve.solve_greedy_ms", div(tp.stageMs["greedy"], tp.stageSolves), "ms")
	rec.layer("solvecache.hit_ratio", div(tp.cacheHits, tp.cacheAll), "ratio")
}

// replay times the request path's building blocks on one solve body:
// decode into serve.SolveRequest, hipo.Scenario.Validate, ScenarioHash and
// encoding of the placement.
func (tp *traceServe) replay(in solveInput, rec *recorder) {
	for r := 0; r < serveReplays; r++ {
		var req serve.SolveRequest
		t := time.Now()
		err := json.Unmarshal(in.body, &req)
		tp.decodeMs += since(t)
		if err == nil {
			t = time.Now()
			err = req.Scenario.Validate()
			tp.validateMs += since(t)
		}
		if err == nil {
			t = time.Now()
			_, err = req.Scenario.ScenarioHash()
			tp.hashMs += since(t)
		}
		var b []byte
		if err == nil {
			t = time.Now()
			b, err = json.Marshal(in.placement)
			tp.encodeMs += since(t)
		}
		if err == nil && !bytes.Equal(b, in.want) {
			err = fmt.Errorf("re-encoded placement differs from the response body")
		}
		rec.check(err)
		tp.nReplays++
	}
}

func (tp *traceServe) reportReplays(rec *recorder) {
	n := float64(max(1, tp.nReplays))
	rec.layer("serve.decode_ms", tp.decodeMs/n, "ms")
	rec.layer("serve.validate_ms", tp.validateMs/n, "ms")
	rec.layer("serve.hash_ms", tp.hashMs/n, "ms")
	rec.layer("serve.encode_ms", tp.encodeMs/n, "ms")
}
