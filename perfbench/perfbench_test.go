package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"hipo"
	"hipo/internal/loadrun"
)

// A placement that differs from its reference in one bit of one
// orientation, or in the utility, is counted as a failed op.
func TestCorruptedPlacementCountsAsFailure(t *testing.T) {
	p := &hipo.Placement{
		Chargers: []hipo.PlacedCharger{{Pos: hipo.Point{X: 1, Y: 2}, Orient: 0.5, Type: 1}},
		Utility:  0.75,
	}
	want := digest(p.Chargers, p.Utility)
	rec := newRecorder(75, 1)
	rec.check(checkPlacement(p, nil, want))

	bad := *p
	bad.Chargers = append([]hipo.PlacedCharger(nil), p.Chargers...)
	bad.Chargers[0].Orient = 0.5000000000000001
	rec.check(checkPlacement(&bad, nil, want))
	bad = *p
	bad.Utility = 0.7500000000000001
	rec.check(checkPlacement(&bad, nil, want))

	if rec.attempted != 3 || rec.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", rec.attempted, rec.failed)
	}
}

// A server answer whose body differs from the library result by one byte,
// or whose status is wrong, is counted as a failed op.
func TestCorruptedResponseCountsAsFailure(t *testing.T) {
	want := []byte(`{"utility":0.5}`)
	corrupt := []byte(`{"utility":0.6}`)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/good":
			w.Write(want)
		case "/corrupt":
			w.Write(corrupt)
		default:
			w.WriteHeader(http.StatusInternalServerError)
			w.Write(want)
		}
	}))
	defer srv.Close()
	ops := []serveOp{
		{Kind: "evaluate", Path: "/good", Status: 200, want: want},
		{Kind: "evaluate", Path: "/corrupt", Status: 200, want: want},
		{Kind: "evaluate", Path: "/status", Status: 200, want: want},
	}
	rec := newRecorder(99.9, 1)
	for _, res := range replay(srv.Client(), srv.URL, 0, ops, nil) {
		rec.check(res.err)
	}
	if rec.attempted != 3 || rec.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", rec.attempted, rec.failed)
	}
}

// A serve-mix round draws sync solves, evaluates and chains in
// loadrun.DefaultMix's proportions, and its hits are more than half of a
// client's requests.
func TestServeMixFollowsDefaultMix(t *testing.T) {
	m := loadrun.DefaultMix
	sync, chains := serveDistinct*(1+serveRepeats), len(serveChainDevices)
	if sync*m.MutateSolve != chains*m.SolveSync || serveEvaluates*m.MutateSolve != chains*m.Evaluate {
		t.Errorf("sync:evaluate:chain = %d:%d:%d, DefaultMix has %d:%d:%d",
			sync, serveEvaluates, chains, m.SolveSync, m.Evaluate, m.MutateSolve)
	}
	hits, requests := serveDistinct*serveRepeats, sync+serveEvaluates+3*chains
	if 2*hits <= requests {
		t.Errorf("%d hits in %d requests, want more than half", hits, requests)
	}
}

func TestRankAndPercentile(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n, k int
	}{{50, 10, 5}, {75, 40, 30}, {99.9, 10000, 9990}, {99.9, 100, 100}, {50, 1, 1}} {
		if got := rank(c.p, c.n); got != c.k {
			t.Errorf("rank(%v, %d) = %d, want %d", c.p, c.n, got, c.k)
		}
	}
	xs := []float64{1, 2, 3, 4}
	if got := percentile(xs, 75); got != 3 {
		t.Errorf("p75 of 1..4 = %v, want 3", got)
	}
}

func TestPickStrata(t *testing.T) {
	a, b := pickStrata(7, 24, 6), pickStrata(7, 24, 6)
	seen := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed drew %v and %v", a, b)
		}
		s := a[i] / 4
		if seen[s] {
			t.Fatalf("stratum %d drawn twice in %v", s, a)
		}
		seen[s] = true
	}
}

// The reference table covers both pools, sorted by stratum key, with one
// digest per trace step.
func TestRefsTable(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs.Cold) != coldPoolSize || len(refs.Mutate) != mutPoolSize {
		t.Fatalf("pools have %d and %d entries, want %d and %d", len(refs.Cold), len(refs.Mutate), coldPoolSize, mutPoolSize)
	}
	for i := 1; i < len(refs.Cold); i++ {
		if refs.Cold[i].Positions < refs.Cold[i-1].Positions {
			t.Fatal("cold pool is not sorted by positions")
		}
	}
	for _, m := range refs.Mutate {
		if len(m.Steps) != mutWarmup+mutTimed {
			t.Fatalf("seed %d has %d steps, want %d", m.Seed, len(m.Steps), mutWarmup+mutTimed)
		}
	}
}

// Plans are pure functions of the seed and match the digests recorded in
// metadata.json.
func TestPlanDigests(t *testing.T) {
	raw, err := os.ReadFile("metadata.json")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		PlanDigestSeed int64 `json:"plan_digest_seed"`
		Workloads      []struct {
			Name       string   `json:"name"`
			PlanDigest []string `json:"plan_digest"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	got["cold-solve"] = []string{planDigest(coldPlan(refs, meta.PlanDigestSeed))}
	_, md, err := mutPlan(refs, meta.PlanDigestSeed)
	if err != nil {
		t.Fatal(err)
	}
	got["mutate-resolve"] = []string{md}
	if testing.Short() {
		t.Log("serve-mix plan digest skipped in -short mode")
	} else {
		plans, err := servePlans(meta.PlanDigestSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range plans {
			got["serve-mix"] = append(got["serve-mix"], planDigest(pl.ops))
		}
	}
	for _, w := range meta.Workloads {
		g, ok := got[w.Name]
		if !ok {
			continue
		}
		if len(g) != len(w.PlanDigest) {
			t.Errorf("%s: %d plan digests, metadata.json has %d", w.Name, len(g), len(w.PlanDigest))
			continue
		}
		for i := range g {
			if g[i] != w.PlanDigest[i] {
				t.Errorf("%s: plan digest %v, metadata.json has %v", w.Name, g, w.PlanDigest)
				break
			}
		}
	}
}

// Every declared per-layer metric is reported, idle layers as 0.
func TestFinishLayersFillsEveryMetric(t *testing.T) {
	rec := newRecorder(75, 1)
	rec.layer("pdcs.self_ms", 3, "ms")
	rec.finishLayers()
	if len(rec.layers) != len(layerMetrics) || len(rec.violations) != 0 {
		t.Fatalf("%d layer metrics, %d violations", len(rec.layers), len(rec.violations))
	}
	rec.layer("bogus", 1, "ms")
	rec.finishLayers()
	if len(rec.violations) != 1 {
		t.Fatal("an undeclared per-layer metric was not reported")
	}
}

// A pool trace is valid op by op against its scenario and has the declared
// composition.
func TestMutationTraceIsValid(t *testing.T) {
	msc, pub := benchScenario(mutPoolFirst)
	trace := mutationTrace(msc, mutPoolFirst)
	if len(trace) != mutWarmup+mutTimed {
		t.Fatalf("trace has %d ops, want %d", len(trace), mutWarmup+mutTimed)
	}
	inc, err := pub.NewIncremental(hipo.WithEps(eps))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i, m := range trace {
		if err := inc.Apply(m); err != nil {
			t.Fatalf("op %d (%s): %v", i, m.Op, err)
		}
		counts[m.Op]++
	}
	want := map[string]int{
		hipo.MutationMoveDevice:   mutWarmup + mutMoves,
		hipo.MutationAddDevice:    mutPairs,
		hipo.MutationRemoveDevice: mutPairs,
		hipo.MutationAddObstacle:  mutObstacles,
	}
	for op, n := range want {
		if counts[op] != n {
			t.Errorf("%d %s ops, want %d", counts[op], op, n)
		}
	}
	if got := inc.Scenario(); len(got.Devices) != len(pub.Devices) {
		t.Errorf("trace leaves %d devices, want %d", len(got.Devices), len(pub.Devices))
	}
}
