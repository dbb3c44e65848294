package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hipo"
	"hipo/internal/jobs"
)

func testScenario() *hipo.Scenario {
	return &hipo.Scenario{
		Min: hipo.Point{X: 0, Y: 0},
		Max: hipo.Point{X: 30, Y: 30},
		ChargerTypes: []hipo.ChargerSpec{
			{Name: "c", Alpha: math.Pi / 2, DMin: 2, DMax: 8, Count: 2},
		},
		DeviceTypes: []hipo.DeviceSpec{{Name: "d", Alpha: math.Pi, PTh: 0.05}},
		Power:       [][]hipo.PowerParams{{{A: 100, B: 40}}},
		Devices: []hipo.Device{
			{Pos: hipo.Point{X: 10, Y: 10}, Orient: 0, Type: 0},
			{Pos: hipo.Point{X: 20, Y: 20}, Orient: math.Pi, Type: 0},
		},
	}
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestServer starts the full handler stack on an ephemeral port.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	cfg.Logger = quietLogger()
	s := New(context.Background(), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ts, s
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// metricValue extracts one sample line from /metrics output.
func metricValue(t *testing.T, metrics, name string) string {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	return ""
}

// TestSolveSyncCacheHit is the acceptance flow: two identical POSTs, the
// second answered from cache with a byte-identical body, verified via the
// /metrics counters.
func TestSolveSyncCacheHit(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	req := SolveRequest{Scenario: testScenario()}

	resp1, body1 := postJSON(t, ts.URL+"/v1/solve", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first solve: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	var p hipo.Placement
	if err := json.Unmarshal(body1, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Chargers) == 0 || p.Utility <= 0 {
		t.Fatalf("placement = %+v", p)
	}

	resp2, body2 := postJSON(t, ts.URL+"/v1/solve", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second solve: %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("cached response not byte-identical:\n%s\n%s", body1, body2)
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	if v := metricValue(t, string(metrics), "hiposerve_cache_hits_total"); v != "1" {
		t.Errorf("cache hits = %q, want 1\n%s", v, metrics)
	}
	if v := metricValue(t, string(metrics), "hiposerve_cache_misses_total"); v != "1" {
		t.Errorf("cache misses = %q, want 1", v)
	}
	if !strings.Contains(string(metrics), `hiposerve_requests_total{endpoint="/v1/solve"} 2`) {
		t.Errorf("request counter missing:\n%s", metrics)
	}
}

// TestOptionsChangeCacheKey: different solver options must not share a
// cache entry.
func TestOptionsChangeCacheKey(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/solve", SolveRequest{Scenario: testScenario()})
	resp, _ := postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{Scenario: testScenario(), Options: SolveOptions{Eps: 0.2}})
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("different eps X-Cache = %q, want miss", got)
	}
}

// TestAsyncJobLifecycle polls an auto-queued job to completion and checks
// that the completed solve also fills the shared cache.
func TestAsyncJobLifecycle(t *testing.T) {
	// SyncDeviceLimit 1 forces the 2-device scenario onto the queue.
	ts, _ := newTestServer(t, Config{SyncDeviceLimit: 1})
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Scenario: testScenario()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", resp.StatusCode, body)
	}
	var accepted struct {
		JobID     string `json:"job_id"`
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.JobID == "" || accepted.StatusURL != "/v1/jobs/"+accepted.JobID {
		t.Fatalf("accepted = %+v", accepted)
	}

	snap := pollJob(t, ts.URL+accepted.StatusURL, jobs.StateDone)
	var p hipo.Placement
	if err := json.Unmarshal(snap.Result, &p); err != nil {
		t.Fatalf("job result %s: %v", snap.Result, err)
	}
	if len(p.Chargers) == 0 {
		t.Fatalf("async placement empty: %+v", p)
	}

	// The async result landed in the cache: a sync re-submission hits.
	resp2, body2 := postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{Scenario: testScenario(), Mode: "sync"})
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("post-async resubmit: %d, X-Cache %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal([]byte(snap.Result), body2) {
		t.Errorf("cached body differs from job result")
	}
}

type jobSnapshot struct {
	ID     string          `json:"id"`
	State  jobs.State      `json:"state"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

func pollJob(t *testing.T, url string, want jobs.State) jobSnapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := getBody(t, url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d %s", resp.StatusCode, body)
		}
		var snap jobSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() {
			t.Fatalf("job reached %s (err %q), want %s", snap.State, snap.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job never reached %s", want)
	return jobSnapshot{}
}

// TestJobCancel cancels a queued job through the HTTP DELETE endpoint
// while the single worker is busy.
func TestJobCancel(t *testing.T) {
	ts, s := newTestServer(t, Config{Workers: 1})
	// Occupy the lone worker so the HTTP-submitted job stays pending.
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := s.jobs.Submit(func(context.Context) (any, error) {
		close(started)
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	resp, body := postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{Scenario: testScenario(), Mode: "async"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var accepted struct {
		StatusURL string `json:"status_url"`
	}
	json.Unmarshal(body, &accepted)

	del, err := http.NewRequest(http.MethodDelete, ts.URL+accepted.StatusURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dbody, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %s", dresp.StatusCode, dbody)
	}
	var snap jobSnapshot
	if err := json.Unmarshal(dbody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.State != jobs.StateCanceled {
		t.Fatalf("state after cancel = %s", snap.State)
	}
	pollJob(t, ts.URL+accepted.StatusURL, jobs.StateCanceled)
}

// TestQueueFull answers 429 with a Retry-After header when the queue cannot
// take another job, and counts the rejection.
func TestQueueFull(t *testing.T) {
	ts, s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	s.jobs.Submit(func(context.Context) (any, error) { close(started); <-release; return nil, nil })
	<-started
	s.jobs.Submit(func(context.Context) (any, error) { return nil, nil }) // fills the queue
	resp, _ := postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{Scenario: testScenario(), Mode: "async"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	if v := metricValue(t, string(metrics), "hiposerve_jobs_rejected_total"); v != "1" {
		t.Errorf("hiposerve_jobs_rejected_total = %q, want 1", v)
	}
	// The saturated queue is visible on the depth gauge before the blocking
	// job is released.
	if v := metricValue(t, string(metrics), "hiposerve_jobs_queue_depth"); v != "1" {
		t.Errorf("hiposerve_jobs_queue_depth = %q, want 1", v)
	}
}

// TestDrainGauges: after all work completes, the active-jobs gauge reads 0
// and the hit-ratio gauge reflects the cache counters — the two families
// the load harness scrapes for its soak invariants.
func TestDrainGauges(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	req := SolveRequest{Scenario: testScenario()}
	postJSON(t, ts.URL+"/v1/solve", req)
	postJSON(t, ts.URL+"/v1/solve", req) // cache hit
	_, metrics := getBody(t, ts.URL+"/metrics")
	if v := metricValue(t, string(metrics), "hiposerve_jobs_active"); v != "0" {
		t.Errorf("hiposerve_jobs_active = %q, want 0", v)
	}
	if v := metricValue(t, string(metrics), "hiposerve_cache_hit_ratio"); v != "0.5" {
		t.Errorf("hiposerve_cache_hit_ratio = %q, want 0.5", v)
	}
}

func TestEvaluateAndRedeploy(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	sc := testScenario()
	_, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Scenario: sc})
	var p hipo.Placement
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}

	resp, ebody := postJSON(t, ts.URL+"/v1/evaluate",
		EvaluateRequest{Scenario: sc, Placement: &p})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d %s", resp.StatusCode, ebody)
	}
	var m hipo.Metrics
	if err := json.Unmarshal(ebody, &m); err != nil {
		t.Fatal(err)
	}
	if m.Utility <= 0 || len(m.DeviceUtilities) != len(sc.Devices) {
		t.Errorf("metrics = %+v", m)
	}

	resp, rbody := postJSON(t, ts.URL+"/v1/redeploy", RedeployRequest{
		Scenario: sc, Old: &p, New: &p,
		Cost: hipo.RedeployCost{PerMeter: 1, PerRadian: 1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("redeploy: %d %s", resp.StatusCode, rbody)
	}
	var plan hipo.RedeployPlan
	if err := json.Unmarshal(rbody, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.TotalCost != 0 {
		t.Errorf("identity redeploy cost = %v, want 0", plan.TotalCost)
	}
}

func TestDiagnosticsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	sc := testScenario()
	resp, body := postJSON(t, ts.URL+"/v1/diagnostics",
		DiagnosticsRequest{Scenario: sc, Eps: 0.15})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnostics: %d %s", resp.StatusCode, body)
	}
	var d DiagnosticsResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.FeasibleArea) != 1 || len(d.FeasibleArea[0]) != 2 {
		t.Errorf("feasible_area shape = %v", d.FeasibleArea)
	}
	if len(d.CellCounts) != 1 || d.CellCounts[0][0] == 0 {
		t.Errorf("cell_counts = %v", d.CellCounts)
	}
	if len(d.UnreachableDevices) != 0 {
		t.Errorf("unreachable = %v", d.UnreachableDevices)
	}

	// Out-of-range eps is a client error.
	resp, _ = postJSON(t, ts.URL+"/v1/diagnostics",
		DiagnosticsRequest{Scenario: sc, Eps: 0.9})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad eps status = %d, want 400", resp.StatusCode)
	}
}

func TestRequestValidation(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"missing scenario", "/v1/solve", SolveRequest{}, http.StatusBadRequest},
		{"bad mode", "/v1/solve",
			SolveRequest{Scenario: testScenario(), Mode: "later"}, http.StatusBadRequest},
		{"bad eps", "/v1/solve",
			SolveRequest{Scenario: testScenario(), Options: SolveOptions{Eps: 0.7}}, http.StatusBadRequest},
		{"negative workers", "/v1/solve",
			SolveRequest{Scenario: testScenario(), Options: SolveOptions{Workers: -1}}, http.StatusBadRequest},
		{"budgeted without budget", "/v1/solve/budgeted",
			SolveRequest{Scenario: testScenario(), Mode: "sync"}, http.StatusBadRequest},
		{"invalid scenario", "/v1/solve",
			SolveRequest{Scenario: &hipo.Scenario{}}, http.StatusBadRequest},
		{"evaluate missing placement", "/v1/evaluate",
			EvaluateRequest{Scenario: testScenario()}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q", tc.name, body)
		}
	}

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status = %d", resp.StatusCode)
	}

	// Unknown job.
	gresp, _ := getBody(t, ts.URL+"/v1/jobs/deadbeef")
	if gresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d", gresp.StatusCode)
	}
}

func TestMaxMinPropFairBudgetedEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	sc := testScenario()
	for _, tc := range []struct {
		url string
		req SolveRequest
	}{
		{"/v1/solve/maxmin", SolveRequest{Scenario: sc, Iterations: 50, Seed: 1}},
		{"/v1/solve/propfair", SolveRequest{Scenario: sc}},
		{"/v1/solve/budgeted", SolveRequest{Scenario: sc, Budget: &hipo.DeploymentBudget{
			Depot: hipo.Point{X: 0, Y: 0}, PerMeter: 1, PerRadian: 1, Budget: 25,
		}}},
	} {
		resp, body := postJSON(t, ts.URL+tc.url, tc.req)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %d %s", tc.url, resp.StatusCode, body)
			continue
		}
		var p hipo.Placement
		if err := json.Unmarshal(body, &p); err != nil {
			t.Errorf("%s: %v", tc.url, err)
		}
		// Re-submission of the same variant hits its own cache entry.
		resp2, body2 := postJSON(t, ts.URL+tc.url, tc.req)
		if resp2.Header.Get("X-Cache") != "hit" || !bytes.Equal(body, body2) {
			t.Errorf("%s: second response not an identical cache hit", tc.url)
		}
	}
}

// TestSyncTimeoutAnswers504Uncached: a synchronous solve past its
// deadline answers 504 on every solve endpoint, budgeted included, and
// caches nothing, so a re-submission solves afresh instead of replaying a
// placement cut short.
func TestSyncTimeoutAnswers504Uncached(t *testing.T) {
	ts, s := newTestServer(t, Config{SyncTimeout: time.Nanosecond})
	sc := testScenario()
	for _, tc := range []struct {
		url string
		req SolveRequest
	}{
		{"/v1/solve", SolveRequest{Scenario: sc, Mode: "sync"}},
		{"/v1/solve/maxmin", SolveRequest{Scenario: sc, Mode: "sync", Iterations: 50, Seed: 1}},
		{"/v1/solve/propfair", SolveRequest{Scenario: sc, Mode: "sync"}},
		{"/v1/solve/budgeted", SolveRequest{Scenario: sc, Mode: "sync", Budget: &hipo.DeploymentBudget{
			Depot: hipo.Point{X: 0, Y: 0}, PerMeter: 1, PerRadian: 1, Budget: 25,
		}}},
	} {
		resp, body := postJSON(t, ts.URL+tc.url, tc.req)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s: %d %s, want 504", tc.url, resp.StatusCode, body)
		}
	}
	if _, _, size := s.cache.Stats(); size != 0 {
		t.Errorf("timed-out solves left %d cache entries", size)
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
	resp, body = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"hiposerve_cache_hits_total",
		"hiposerve_jobs_tracked",
		"hiposerve_cache_entries",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// TestGracefulShutdownDrains verifies queued jobs finish before shutdown
// returns.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(context.Background(), Config{Workers: 2, Logger: quietLogger()})
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := s.jobs.Submit(func(context.Context) (any, error) {
			time.Sleep(10 * time.Millisecond)
			return "r", nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		snap, err := s.jobs.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != jobs.StateDone {
			t.Errorf("job %s = %s after drain", id, snap.State)
		}
	}
}
