package hipo

// Integration tests: cross-module flows on randomized scenarios, including
// the paper's "obstacles of arbitrary shapes" claim exercised with random
// star-shaped polygons, and end-to-end optimality/feasibility invariants.

import (
	"math"
	"math/rand"
	"testing"

	"hipo/internal/core"
	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/power"
	"hipo/internal/submodular"
)

// randomObstacleScenario builds a scenario with nObs random star-shaped
// obstacles and nDev devices placed feasibly around them.
func randomObstacleScenario(rng *rand.Rand, nObs, nDev int) *model.Scenario {
	sc := &model.Scenario{
		Region: model.Region{Min: geom.V(0, 0), Max: geom.V(40, 40)},
		ChargerTypes: []model.ChargerType{
			{Name: "c1", Alpha: math.Pi / 3, DMin: 3, DMax: 9, Count: 2},
			{Name: "c2", Alpha: math.Pi / 2, DMin: 2, DMax: 6, Count: 3},
		},
		DeviceTypes: []model.DeviceType{
			{Name: "d1", Alpha: math.Pi, PTh: 0.05},
			{Name: "d2", Alpha: 2 * math.Pi / 3, PTh: 0.05},
		},
		Power: [][]model.PowerParams{
			{{A: 100, B: 40}, {A: 130, B: 52}},
			{{A: 110, B: 44}, {A: 140, B: 56}},
		},
	}
	for len(sc.Obstacles) < nObs {
		c := geom.V(5+rng.Float64()*30, 5+rng.Float64()*30)
		poly := geom.RandomSimplePolygon(rng, c, 1, 3, 3+rng.Intn(7))
		sc.Obstacles = append(sc.Obstacles, model.Obstacle{Shape: poly})
	}
	for len(sc.Devices) < nDev {
		p := geom.V(rng.Float64()*40, rng.Float64()*40)
		if !sc.FeasiblePosition(p) {
			continue
		}
		sc.Devices = append(sc.Devices, model.Device{
			Pos: p, Orient: rng.Float64() * 2 * math.Pi, Type: rng.Intn(2),
		})
	}
	return sc
}

// TestSolveWithArbitraryObstacles fuzzes the full pipeline against random
// obstacle fields: results must be feasible, consistent, and within bounds.
func TestSolveWithArbitraryObstacles(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 12; trial++ {
		nObs := rng.Intn(5)
		sc := randomObstacleScenario(rng, nObs, 8+rng.Intn(8))
		if err := sc.Validate(); err != nil {
			t.Fatalf("trial %d: generated scenario invalid: %v", trial, err)
		}
		sol, err := core.Solve(sc, core.DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Utility < 0 || sol.Utility > 1+1e-9 {
			t.Fatalf("trial %d: utility %v", trial, sol.Utility)
		}
		counts := map[int]int{}
		for _, s := range sol.Placed {
			counts[s.Type]++
			if !sc.FeasiblePosition(s.Pos) {
				t.Fatalf("trial %d: infeasible placement %v", trial, s.Pos)
			}
		}
		for q, ct := range sc.ChargerTypes {
			if counts[q] > ct.Count {
				t.Fatalf("trial %d: type %d over budget", trial, q)
			}
		}
		if got := power.TotalUtility(sc, sol.Placed); math.Abs(got-sol.Utility) > 1e-12 {
			t.Fatalf("trial %d: utility mismatch", trial)
		}
		// Lemma 4.2/4.3: approximated objective never exceeds exact utility.
		if sol.Utility < sol.ApproxValue-1e-9 {
			t.Fatalf("trial %d: exact %v < approx %v", trial, sol.Utility, sol.ApproxValue)
		}
	}
}

// TestNoPowerThroughObstacles verifies the line-of-sight gate end to end:
// take solved placements and check that every (charger, device) pair with
// positive power has unobstructed line of sight.
func TestNoPowerThroughObstacles(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 8; trial++ {
		sc := randomObstacleScenario(rng, 3, 10)
		sol, err := core.Solve(sc, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sol.Placed {
			for j := range sc.Devices {
				if power.Exact(sc, s, j) > 0 && !sc.LineOfSight(s.Pos, sc.Devices[j].Pos) {
					t.Fatalf("trial %d: power delivered through an obstacle", trial)
				}
			}
		}
	}
}

// TestGreedyNearOptimalEndToEnd compares the full pipeline against brute
// force over its own candidate set on tiny instances: the greedy must reach
// at least half the candidate-set optimum (Theorem 4.2's combinatorial
// part).
func TestGreedyNearOptimalEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 5; trial++ {
		sc := randomObstacleScenario(rng, 1, 5)
		sc.ChargerTypes[0].Count = 1
		sc.ChargerTypes[1].Count = 1
		opt := core.DefaultOptions()
		cands, err := core.ExtractCandidates(sc, opt)
		if err != nil {
			t.Fatal(err)
		}
		inst, _ := core.BuildInstance(sc, cands, opt)
		res := submodular.GreedyLazy(inst)
		best := bruteForceSelect(inst)
		if res.Value < best/2-1e-9 {
			t.Fatalf("trial %d: greedy %v below half of candidate optimum %v",
				trial, res.Value, best)
		}
	}
}

func bruteForceSelect(inst *submodular.Instance) float64 {
	// With budget 1 per part, optimum = max over pairs (one per part).
	var part [2][]int
	for e, el := range inst.Elements {
		part[el.Part] = append(part[el.Part], e)
	}
	best := 0.0
	try := func(sel []int) {
		if v := submodular.Evaluate(inst, sel); v > best {
			best = v
		}
	}
	for _, a := range part[0] {
		try([]int{a})
		for _, b := range part[1] {
			try([]int{a, b})
		}
	}
	for _, b := range part[1] {
		try([]int{b})
	}
	return best
}

// TestHIPOBeatsBaselinesOnAverage is the headline claim in miniature: over
// a few topologies, HIPO's mean utility must exceed every baseline's.
func TestHIPOBeatsBaselinesOnAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rc := expt.RunConfig{Runs: 2, Seed: 11, Eps: 0.15}
	fig := expt.RunNsSweep(rc)
	hipoSeries := fig.FindSeries("HIPO")
	for _, s := range fig.Series {
		if s.Label == "HIPO" {
			continue
		}
		if expt.Mean(hipoSeries.Y) <= expt.Mean(s.Y) {
			t.Errorf("HIPO mean %v not above %s mean %v",
				expt.Mean(hipoSeries.Y), s.Label, expt.Mean(s.Y))
		}
	}
}

// TestDistributedEqualsSerialQuality cross-checks Section 5 end to end on a
// random obstacle scenario: greedy value from distributed extraction must
// match the serial pipeline's within the dedup tolerance.
func TestDistributedEqualsSerialQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	sc := randomObstacleScenario(rng, 2, 8)
	opt := core.DefaultOptions()
	serial, err := core.Solve(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := expt.RunExtractionTasks(sc, power.Eps1ForEps(0.15), 4, nil, nil)
	dist, err := core.SelectFromCandidates(sc, cands, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The candidate sets are equal up to dedup ordering, so values match
	// closely; allow a small relative slack for tie-breaking.
	if dist.ApproxValue < serial.ApproxValue*0.95-1e-9 {
		t.Errorf("distributed %v well below serial %v", dist.ApproxValue, serial.ApproxValue)
	}
}

// TestOmnidirectionalSpecialCase exercises the NP-hardness reduction's
// special case (Theorem 3.1): α_s = α_o = 2π, d_min ≈ 0 — disk coverage.
func TestOmnidirectionalSpecialCase(t *testing.T) {
	sc := &model.Scenario{
		Region: model.Region{Min: geom.V(0, 0), Max: geom.V(40, 40)},
		ChargerTypes: []model.ChargerType{
			{Name: "disk", Alpha: 2 * math.Pi, DMin: 0, DMax: 8, Count: 2},
		},
		DeviceTypes: []model.DeviceType{
			{Name: "omni", Alpha: 2 * math.Pi, PTh: 0.01},
		},
		Power: [][]model.PowerParams{{{A: 100, B: 40}}},
		Devices: []model.Device{
			{Pos: geom.V(10, 10), Orient: 0, Type: 0},
			{Pos: geom.V(12, 11), Orient: 3, Type: 0},
			{Pos: geom.V(30, 30), Orient: 1, Type: 0},
			{Pos: geom.V(31, 28), Orient: 5, Type: 0},
		},
	}
	sol, err := core.Solve(sc, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Two disk chargers suffice to cover both clusters fully.
	if sol.Utility < 0.999 {
		t.Errorf("disk-cover utility = %v, want ≈ 1", sol.Utility)
	}
}

// TestDegenerateConfigurations drives the solver through geometric corner
// cases: coincident devices, devices on obstacle boundaries, overlapping
// obstacles, zero d_min, and a device hugging the region corner.
func TestDegenerateConfigurations(t *testing.T) {
	base := func() *model.Scenario {
		return &model.Scenario{
			Region: model.Region{Min: geom.V(0, 0), Max: geom.V(30, 30)},
			ChargerTypes: []model.ChargerType{
				{Name: "c", Alpha: math.Pi / 2, DMin: 0, DMax: 7, Count: 3},
			},
			DeviceTypes: []model.DeviceType{
				{Name: "d", Alpha: math.Pi, PTh: 0.05},
			},
			Power: [][]model.PowerParams{{{A: 100, B: 40}}},
		}
	}
	cases := []struct {
		name  string
		build func() *model.Scenario
	}{
		{"coincident devices", func() *model.Scenario {
			sc := base()
			sc.Devices = []model.Device{
				{Pos: geom.V(15, 15), Orient: 0, Type: 0},
				{Pos: geom.V(15, 15), Orient: math.Pi, Type: 0},
				{Pos: geom.V(15, 15), Orient: math.Pi / 2, Type: 0},
			}
			return sc
		}},
		{"device on obstacle boundary", func() *model.Scenario {
			sc := base()
			sc.Obstacles = []model.Obstacle{{Shape: geom.Rect(10, 10, 14, 14)}}
			sc.Devices = []model.Device{
				{Pos: geom.V(10, 12), Orient: math.Pi, Type: 0}, // on the west wall
				{Pos: geom.V(20, 20), Orient: 0, Type: 0},
			}
			return sc
		}},
		{"overlapping obstacles", func() *model.Scenario {
			sc := base()
			sc.Obstacles = []model.Obstacle{
				{Shape: geom.Rect(10, 10, 16, 16)},
				{Shape: geom.Rect(13, 13, 19, 19)},
			}
			sc.Devices = []model.Device{
				{Pos: geom.V(5, 5), Orient: math.Pi / 4, Type: 0},
				{Pos: geom.V(25, 25), Orient: 5 * math.Pi / 4, Type: 0},
			}
			return sc
		}},
		{"device in region corner", func() *model.Scenario {
			sc := base()
			sc.Devices = []model.Device{
				{Pos: geom.V(0, 0), Orient: math.Pi / 4, Type: 0},
				{Pos: geom.V(30, 30), Orient: 5 * math.Pi / 4, Type: 0},
			}
			return sc
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := c.build()
			if err := sc.Validate(); err != nil {
				t.Fatalf("scenario invalid: %v", err)
			}
			sol, err := core.Solve(sc, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if sol.Utility < 0 || sol.Utility > 1+1e-9 {
				t.Fatalf("utility %v", sol.Utility)
			}
			for _, s := range sol.Placed {
				if !sc.FeasiblePosition(s.Pos) {
					t.Fatalf("infeasible placement %v", s.Pos)
				}
			}
			// Degenerate layouts must still let the solver reach someone.
			if sol.Utility == 0 && c.name != "device on obstacle boundary" {
				t.Errorf("zero utility on %q", c.name)
			}
		})
	}
}

// TestTinyAndHugeScales drives extreme coordinate magnitudes through the
// epsilon discipline.
func TestTinyAndHugeScales(t *testing.T) {
	for _, scale := range []float64{1e-2, 1e3} {
		sc := &model.Scenario{
			Region: model.Region{Min: geom.V(0, 0), Max: geom.V(40*scale, 40*scale)},
			ChargerTypes: []model.ChargerType{
				{Name: "c", Alpha: math.Pi / 2, DMin: 2 * scale, DMax: 8 * scale, Count: 2},
			},
			DeviceTypes: []model.DeviceType{{Name: "d", Alpha: math.Pi, PTh: 0.05}},
			Power:       [][]model.PowerParams{{{A: 100 * scale * scale, B: 40 * scale}}},
			Devices: []model.Device{
				{Pos: geom.V(10*scale, 10*scale), Orient: 0, Type: 0},
				{Pos: geom.V(14*scale, 10*scale), Orient: math.Pi, Type: 0},
			},
		}
		sol, err := core.Solve(sc, core.DefaultOptions())
		if err != nil {
			t.Fatalf("scale %v: %v", scale, err)
		}
		if sol.Utility <= 0 {
			t.Errorf("scale %v: zero utility", scale)
		}
	}
}

// TestDominanceFilterPreservesGreedyValue checks the ablation claim from
// DESIGN.md quantitatively: filtering ~99% of candidates moves the greedy
// value only marginally (the filter is lossless for the optimum; the greedy
// path may differ slightly through ties).
func TestDominanceFilterPreservesGreedyValue(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sc := expt.BuildScenario(expt.Params{Seed: 21})
	filtered, err := core.Solve(sc, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	raw := core.DefaultOptions()
	raw.SkipDominanceFilter = true
	unfiltered, err := core.Solve(sc, raw)
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Utility < 0.93*unfiltered.Utility {
		t.Errorf("dominance filter cost too much utility: %v vs %v",
			filtered.Utility, unfiltered.Utility)
	}
	nf, nu := 0, 0
	for _, c := range filtered.Candidates {
		nf += c
	}
	for _, c := range unfiltered.Candidates {
		nu += c
	}
	if nf >= nu/10 {
		t.Errorf("filter barely reduced candidates: %d vs %d", nf, nu)
	}
}
