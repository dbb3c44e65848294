package hipo

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// demoScenario builds a small heterogeneous scenario with one obstacle.
func demoScenario() *Scenario {
	return &Scenario{
		Min: Point{0, 0},
		Max: Point{40, 40},
		ChargerTypes: []ChargerSpec{
			{Name: "narrow", Alpha: math.Pi / 3, DMin: 3, DMax: 8, Count: 2},
			{Name: "wide", Alpha: math.Pi / 2, DMin: 2, DMax: 6, Count: 2},
		},
		DeviceTypes: []DeviceSpec{
			{Name: "sensor", Alpha: math.Pi, PTh: 0.05},
			{Name: "tag", Alpha: 3 * math.Pi / 4, PTh: 0.05},
		},
		Power: [][]PowerParams{
			{{A: 100, B: 40}, {A: 130, B: 52}},
			{{A: 110, B: 44}, {A: 140, B: 56}},
		},
		Devices: []Device{
			{Pos: Point{10, 10}, Orient: 0, Type: 0},
			{Pos: Point{14, 12}, Orient: math.Pi, Type: 1},
			{Pos: Point{28, 28}, Orient: math.Pi / 2, Type: 0},
			{Pos: Point{30, 24}, Orient: math.Pi, Type: 1},
		},
		Obstacles: []Obstacle{
			{Vertices: []Point{{18, 16}, {22, 16}, {22, 20}, {18, 20}}},
		},
	}
}

func TestSolvePublicAPI(t *testing.T) {
	s := demoScenario()
	p, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Chargers) == 0 || len(p.Chargers) > 4 {
		t.Fatalf("placed %d chargers", len(p.Chargers))
	}
	if p.Utility <= 0 || p.Utility > 1 {
		t.Fatalf("utility = %v", p.Utility)
	}
	if len(p.CandidateCounts) != 2 {
		t.Fatalf("candidate counts = %v", p.CandidateCounts)
	}
	// Evaluate must agree with the reported utility.
	m, err := s.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Utility-p.Utility) > 1e-12 {
		t.Errorf("evaluate %v != solve %v", m.Utility, p.Utility)
	}
	if len(m.DeviceUtilities) != 4 || len(m.DevicePowers) != 4 {
		t.Error("metrics vectors wrong length")
	}
}

func TestSolveOptions(t *testing.T) {
	s := demoScenario()
	p1, err := s.Solve(WithEps(0.1), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Solve(WithPerTypeGreedy())
	if err != nil {
		t.Fatal(err)
	}
	if p1.Utility <= 0 || p2.Utility <= 0 {
		t.Error("options broke solving")
	}
}

func TestValidateRejectsBadScenario(t *testing.T) {
	s := demoScenario()
	s.Power = nil
	checkField(t, s.Validate(), "scenario.power")
	_, err := s.Solve()
	checkField(t, err, "scenario.power")
}

// checkField fails unless err wraps the *FieldError at path field.
func checkField(t *testing.T, err error, field string) {
	t.Helper()
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Path != field {
		t.Fatalf("error %v, want a *FieldError at %s", err, field)
	}
}

// TestEntryPointsRejectInvalidInputs: every entry point that takes an input
// beside the scenario checks it and names the offending field, rooted at
// the argument. Before these checks, Evaluate and Field panicked on a
// charger type the scenario lacks, SolveBudgeted returned an empty or a full placement for a
// negative budget or a NaN rate, and redeploying under a NaN rate failed
// inside the matching.
func TestEntryPointsRejectInvalidInputs(t *testing.T) {
	s := demoScenario()
	nan := math.NaN()
	old := &Placement{Chargers: []PlacedCharger{{Pos: Point{5, 5}}, {Pos: Point{35, 35}, Type: 1}}}
	moved := &Placement{Chargers: []PlacedCharger{{Pos: Point{6, 5}}, {Pos: Point{35, 30}, Type: 1}}}
	cases := []struct {
		name  string
		run   func() error
		field string
	}{
		{"evaluate-type-oob", func() error {
			_, err := s.Evaluate(&Placement{Chargers: []PlacedCharger{{Pos: Point{5, 5}, Type: 3}}})
			return err
		}, "placement.chargers[0].type"},
		{"evaluate-nan-orient", func() error {
			_, err := s.Evaluate(&Placement{Chargers: []PlacedCharger{{Pos: Point{5, 5}, Orient: nan}}})
			return err
		}, "placement.chargers[0].orient"},
		{"field-type-oob", func() error {
			_, err := s.Field(&Placement{Chargers: []PlacedCharger{{Pos: Point{5, 5}, Type: 2}}}, 0, 8)
			return err
		}, "placement.chargers[0].type"},
		{"budgeted-negative", func() error {
			_, err := s.SolveBudgeted(DeploymentBudget{PerMeter: 1, Budget: -5})
			return err
		}, "budget.budget"},
		{"budgeted-nan-rate", func() error {
			_, err := s.SolveBudgeted(DeploymentBudget{PerMeter: nan, Budget: 50})
			return err
		}, "budget.per_meter"},
		{"redeploy-nan-rate", func() error {
			_, err := s.RedeployMinTotal(old, moved, RedeployCost{PerMeter: nan})
			return err
		}, "cost.per_meter"},
		{"redeploy-old-type", func() error {
			_, err := s.RedeployMinMax(&Placement{Chargers: []PlacedCharger{{Type: -1}}}, moved, RedeployCost{})
			return err
		}, "old.chargers[0].type"},
		{"redeploy-new-pos", func() error {
			_, err := s.RedeployMinTotal(old, &Placement{Chargers: []PlacedCharger{{Pos: Point{nan, 1}}}}, RedeployCost{})
			return err
		}, "new.chargers[0].pos.x"},
		{"mutation", func() error {
			inc, err := s.NewIncremental(WithEps(0.3))
			if err != nil {
				return err
			}
			return inc.Apply(MutateMoveDevice(0, Point{20, 18}, 0))
		}, "scenario.devices[0].pos"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkField(t, tc.run(), tc.field) })
	}
	if _, err := s.RedeployMinTotal(old, moved, RedeployCost{PerMeter: 1}); err != nil {
		t.Fatalf("valid redeploy rejected: %v", err)
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	s := demoScenario()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var s2 Scenario
	if err := json.Unmarshal(b, &s2); err != nil {
		t.Fatal(err)
	}
	if len(s2.Devices) != len(s.Devices) || len(s2.Obstacles) != 1 {
		t.Error("round trip lost data")
	}
	if s2.ChargerTypes[0].Alpha != s.ChargerTypes[0].Alpha {
		t.Error("round trip changed values")
	}
	if err := s2.Validate(); err != nil {
		t.Errorf("round-tripped scenario invalid: %v", err)
	}
}

func TestPlacementJSONRoundTrip(t *testing.T) {
	s := demoScenario()
	p, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var p2 Placement
	if err := json.Unmarshal(b, &p2); err != nil {
		t.Fatal(err)
	}
	if len(p2.Chargers) != len(p.Chargers) || p2.Utility != p.Utility {
		t.Error("placement round trip lost data")
	}
}

func TestRedeployAPI(t *testing.T) {
	s := demoScenario()
	old, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Perturb devices and re-solve.
	s2 := demoScenario()
	for i := range s2.Devices {
		s2.Devices[i].Pos.X += 2
	}
	new_, err := s2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Pad to equal counts per type if needed.
	if typeCounts(old) != typeCounts(new_) {
		t.Skip("placements differ in size; redeploy needs equal counts")
	}
	cost := RedeployCost{PerMeter: 1, PerRadian: 1}
	mt, err := s.RedeployMinTotal(old, new_, cost)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := s.RedeployMinMax(old, new_, cost)
	if err != nil {
		t.Fatal(err)
	}
	if mm.MaxCost > mt.MaxCost+1e-9 {
		t.Errorf("minmax max %v > mintotal max %v", mm.MaxCost, mt.MaxCost)
	}
	if mt.TotalCost > mm.TotalCost+1e-9 {
		t.Errorf("mintotal total %v > minmax total %v", mt.TotalCost, mm.TotalCost)
	}
	if len(mt.Moves) != len(old.Chargers) {
		t.Errorf("moves = %d", len(mt.Moves))
	}
}

func typeCounts(p *Placement) [8]int {
	var c [8]int
	for _, ch := range p.Chargers {
		if ch.Type < 8 {
			c[ch.Type]++
		}
	}
	return c
}

func TestSolveBudgetedAPI(t *testing.T) {
	s := demoScenario()
	b := DeploymentBudget{
		Depot: Point{0, 0}, PerMeter: 1, PerRadian: 0.5, Budget: 30,
	}
	p, err := s.SolveBudgeted(b)
	if err != nil {
		t.Fatal(err)
	}
	unlimited, err := s.SolveBudgeted(DeploymentBudget{Depot: Point{0, 0}, PerMeter: 1, Budget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if p.Utility > unlimited.Utility+1e-9 {
		t.Error("tight budget beat unlimited budget")
	}
}

func TestSolveFairnessAPI(t *testing.T) {
	s := demoScenario()
	mm, err := s.SolveMaxMin(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mm.Chargers) == 0 {
		t.Error("max-min placed nothing")
	}
	pf, err := s.SolveProportionalFair()
	if err != nil {
		t.Fatal(err)
	}
	if pf.Utility <= 0 {
		t.Error("proportional fair utility zero")
	}
}

func TestApproximationRatio(t *testing.T) {
	if got := ApproximationRatio(); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("default ratio = %v", got)
	}
	if got := ApproximationRatio(WithEps(0.25)); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("ratio = %v", got)
	}
}

func TestSolveContinuousGreedy(t *testing.T) {
	s := demoScenario()
	p, err := s.Solve(WithContinuousGreedy())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Chargers) == 0 || p.Utility <= 0 {
		t.Fatalf("continuous greedy placement = %+v", p)
	}
	// Should be within reach of the default greedy's value.
	g, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if p.Utility < 0.7*g.Utility {
		t.Errorf("continuous %v far below greedy %v", p.Utility, g.Utility)
	}
}

func TestFieldAPI(t *testing.T) {
	s := demoScenario()
	p, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Field(p, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if f.NX != 32 || f.NY != 32 || len(f.Values) != 32 {
		t.Fatal("grid shape wrong")
	}
	if f.Peak <= 0 {
		t.Error("field peak should be positive after a solve")
	}
	if f.CoverageAtPth < 0 || f.CoverageAtPth > 1 {
		t.Errorf("coverage = %v", f.CoverageAtPth)
	}
	var buf bytes.Buffer
	if err := f.WriteHeatmap(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "</svg>") {
		t.Error("heatmap truncated")
	}
	// Error paths.
	if _, err := s.Field(p, 9, 32); err == nil {
		t.Error("bad probe type should fail")
	}
	if _, err := s.Field(p, 0, 1); err == nil {
		t.Error("tiny resolution should fail")
	}
}

func TestDiagnosticsAPI(t *testing.T) {
	s := demoScenario()
	area, err := s.FeasibleArea(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if area <= 0 {
		t.Errorf("feasible area = %v", area)
	}
	// Area can never exceed the charger's full annulus.
	ct := s.ChargerTypes[0]
	annulus := math.Pi * (ct.DMax*ct.DMax - ct.DMin*ct.DMin)
	if area > annulus+1e-9 {
		t.Errorf("area %v exceeds annulus %v", area, annulus)
	}
	n, err := s.FeasibleCellCount(0, 0, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Errorf("cell count = %d", n)
	}
	// Out-of-range errors.
	if _, err := s.FeasibleArea(9, 0); err == nil {
		t.Error("bad charger type should fail")
	}
	if _, err := s.FeasibleArea(0, 99); err == nil {
		t.Error("bad device index should fail")
	}
	if _, err := s.FeasibleCellCount(9, 0, 0.15); err == nil {
		t.Error("bad charger type should fail")
	}
	if _, err := s.FeasibleCellCount(0, 99, 0.15); err == nil {
		t.Error("bad device index should fail")
	}
	for _, eps := range []float64{0, -0.1, 0.5, 0.9, math.NaN()} {
		_, err := s.FeasibleCellCount(0, 0, eps)
		checkField(t, err, "eps")
		checkField(t, CheckEps(eps), "eps")
	}
}

func TestUnreachableDevices(t *testing.T) {
	s := demoScenario()
	un, err := s.UnreachableDevices()
	if err != nil {
		t.Fatal(err)
	}
	if len(un) != 0 {
		t.Errorf("open scenario should have no unreachable devices: %v", un)
	}
	// Box a device in tightly: walls all around within every charger's DMin.
	s2 := demoScenario()
	s2.Obstacles = append(s2.Obstacles,
		Obstacle{Vertices: []Point{{9, 9}, {11, 9}, {11, 9.5}, {9, 9.5}}},
		Obstacle{Vertices: []Point{{9, 10.5}, {11, 10.5}, {11, 11}, {9, 11}}},
		Obstacle{Vertices: []Point{{9, 9.5}, {9.5, 9.5}, {9.5, 10.5}, {9, 10.5}}},
		Obstacle{Vertices: []Point{{10.5, 9.5}, {11, 9.5}, {11, 10.5}, {10.5, 10.5}}},
	)
	un2, err := s2.UnreachableDevices()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range un2 {
		if j == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("boxed-in device 0 should be unreachable: %v", un2)
	}
}

func TestSolveWithCanceledContext(t *testing.T) {
	s := demoScenario()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Solve(WithContext(ctx)); err == nil {
		t.Error("canceled context should abort the solve")
	}
	// A live context solves normally.
	p, err := s.Solve(WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if p.Utility <= 0 {
		t.Error("live-context solve broken")
	}
}
