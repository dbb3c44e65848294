package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"

	"hipo"
	"hipo/internal/model"
)

// TestValidatorsFieldPaths drives the library validators serve relies on
// with the non-representable-in-JSON garbage (NaN/Inf reaches them via
// in-process embedding, e.g. cmd/hipoload) and asserts each rejection is
// the *model.FieldError whose path writeError sends as "field": the exact
// offending field, rooted at the request field that holds it.
func TestValidatorsFieldPaths(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)

	t.Run("scenario", func(t *testing.T) {
		cases := []struct {
			name   string
			mutate func(*hipo.Scenario)
			field  string
		}{
			{"nan-min", func(s *hipo.Scenario) { s.Min.X = nan }, "scenario.min.x"},
			{"inf-max", func(s *hipo.Scenario) { s.Max.Y = inf }, "scenario.max.y"},
			{"alpha-zero", func(s *hipo.Scenario) { s.ChargerTypes[0].Alpha = 0 }, "scenario.charger_types[0].alpha"},
			{"alpha-over", func(s *hipo.Scenario) { s.ChargerTypes[0].Alpha = 7 }, "scenario.charger_types[0].alpha"},
			{"alpha-nan", func(s *hipo.Scenario) { s.ChargerTypes[0].Alpha = nan }, "scenario.charger_types[0].alpha"},
			{"dmin-neg", func(s *hipo.Scenario) { s.ChargerTypes[0].DMin = -1 }, "scenario.charger_types[0].dmin"},
			{"dmax-inverted", func(s *hipo.Scenario) { s.ChargerTypes[0].DMax = 1 }, "scenario.charger_types[0].dmax"},
			{"count-neg", func(s *hipo.Scenario) { s.ChargerTypes[0].Count = -1 }, "scenario.charger_types[0].count"},
			{"dev-alpha", func(s *hipo.Scenario) { s.DeviceTypes[0].Alpha = -2 }, "scenario.device_types[0].alpha"},
			{"pth-zero", func(s *hipo.Scenario) { s.DeviceTypes[0].PTh = 0 }, "scenario.device_types[0].pth"},
			{"power-a", func(s *hipo.Scenario) { s.Power[0][0].A = nan }, "scenario.power[0][0].a"},
			{"power-b-neg", func(s *hipo.Scenario) { s.Power[0][0].B = -3 }, "scenario.power[0][0].b"},
			{"device-pos", func(s *hipo.Scenario) { s.Devices[1].Pos.X = inf }, "scenario.devices[1].pos.x"},
			{"device-orient", func(s *hipo.Scenario) { s.Devices[0].Orient = nan }, "scenario.devices[0].orient"},
			{"device-type", func(s *hipo.Scenario) { s.Devices[0].Type = 3 }, "scenario.devices[0].type"},
			{"obstacle-vertex", func(s *hipo.Scenario) {
				s.Obstacles = []hipo.Obstacle{{Vertices: []hipo.Point{{X: 1, Y: 1}, {X: 2, Y: nan}, {X: 2, Y: 2}}}}
			}, "scenario.obstacles[0].vertices[1].y"},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				sc := testScenario()
				tc.mutate(sc)
				checkField(t, sc.Validate(), tc.field)
			})
		}
		if err := testScenario().Validate(); err != nil {
			t.Fatalf("valid scenario rejected: %v", err)
		}
	})

	t.Run("placement", func(t *testing.T) {
		sc := testScenario()
		cases := []struct {
			name  string
			p     hipo.Placement
			field string
		}{
			{"nan-pos", hipo.Placement{Chargers: []hipo.PlacedCharger{{Pos: hipo.Point{X: nan}}}},
				"placement.chargers[0].pos.x"},
			{"inf-orient", hipo.Placement{Chargers: []hipo.PlacedCharger{{Orient: inf}}},
				"placement.chargers[0].orient"},
			{"type-oob", hipo.Placement{Chargers: []hipo.PlacedCharger{{Pos: hipo.Point{X: 1, Y: 1}}, {Type: 9}}},
				"placement.chargers[1].type"},
			{"type-neg", hipo.Placement{Chargers: []hipo.PlacedCharger{{Type: -1}}},
				"placement.chargers[0].type"},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				_, err := sc.Evaluate(&tc.p)
				checkField(t, err, tc.field)
			})
		}
	})

	t.Run("budget", func(t *testing.T) {
		cases := []struct {
			name   string
			mutate func(*hipo.DeploymentBudget)
			field  string
		}{
			{"zero-budget", func(b *hipo.DeploymentBudget) { b.Budget = 0 }, "budget.budget"},
			{"neg-budget", func(b *hipo.DeploymentBudget) { b.Budget = -4 }, "budget.budget"},
			{"nan-budget", func(b *hipo.DeploymentBudget) { b.Budget = nan }, "budget.budget"},
			{"nan-depot", func(b *hipo.DeploymentBudget) { b.Depot.X = nan }, "budget.depot.x"},
			{"neg-rate", func(b *hipo.DeploymentBudget) { b.PerMeter = -1 }, "budget.per_meter"},
			{"inf-watt", func(b *hipo.DeploymentBudget) { b.PerWatt = inf }, "budget.per_watt"},
			{"neg-type-power", func(b *hipo.DeploymentBudget) { b.TypePower = []float64{1, -2} }, "budget.type_power[1]"},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				b := &hipo.DeploymentBudget{PerMeter: 1, PerRadian: 1, Budget: 50}
				tc.mutate(b)
				checkField(t, b.Validate(), tc.field)
			})
		}
	})

	t.Run("redeploy-cost", func(t *testing.T) {
		sc, none := testScenario(), &hipo.Placement{}
		_, err := sc.RedeployMinTotal(none, none, hipo.RedeployCost{PerMeter: 1, PerInstall: nan})
		checkField(t, err, "cost.per_install")
		if _, err := sc.RedeployMinTotal(none, none, hipo.RedeployCost{PerMeter: 1, PerRadian: 2}); err != nil {
			t.Fatalf("valid cost rejected: %v", err)
		}
	})
}

func checkField(t *testing.T, err error, field string) {
	t.Helper()
	var fe *model.FieldError
	if !errors.As(err, &fe) || fe.Path != field {
		t.Fatalf("error %v, want a *model.FieldError at %s", err, field)
	}
}

// TestHandlersRejectInvalidRequests runs representable request garbage
// through the full HTTP stack and asserts 400 plus the "field" key in the
// error body. The evaluate case with an out-of-range charger type used to
// panic inside the power model instead of 400ing. The semantic scenario
// rules (region, obstacles, power shape, polygons) name their field on both
// the solve and the registry endpoints.
func TestHandlersRejectInvalidRequests(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	sc := testScenario()

	type reqCase struct {
		name     string
		endpoint string
		body     any
		field    string
	}
	cases := []reqCase{
		{"solve-bad-eps", "/v1/solve",
			SolveRequest{Scenario: sc, Options: SolveOptions{Eps: 0.7}}, "options.eps"},
		{"solve-neg-workers", "/v1/solve",
			SolveRequest{Scenario: sc, Options: SolveOptions{Workers: -2}}, "options.workers"},
		{"solve-neg-iterations", "/v1/solve/maxmin",
			SolveRequest{Scenario: sc, Iterations: -1}, "iterations"},
		{"solve-bad-alpha", "/v1/solve",
			func() SolveRequest {
				bad := *sc
				bad.ChargerTypes = []hipo.ChargerSpec{{Name: "c", Alpha: 9, DMin: 2, DMax: 8, Count: 1}}
				return SolveRequest{Scenario: &bad}
			}(), "scenario.charger_types[0].alpha"},
		{"solve-bad-device-type", "/v1/solve",
			func() SolveRequest {
				bad := *sc
				bad.Devices = []hipo.Device{{Pos: hipo.Point{X: 5, Y: 5}, Type: 4}}
				return SolveRequest{Scenario: &bad}
			}(), "scenario.devices[0].type"},
		{"budgeted-nonpositive", "/v1/solve/budgeted",
			SolveRequest{Scenario: sc, Budget: &hipo.DeploymentBudget{PerMeter: 1, Budget: -10}},
			"budget.budget"},
		{"evaluate-type-oob", "/v1/evaluate",
			EvaluateRequest{Scenario: sc, Placement: &hipo.Placement{
				Chargers: []hipo.PlacedCharger{{Pos: hipo.Point{X: 5, Y: 5}, Type: 3}},
			}}, "placement.chargers[0].type"},
		{"redeploy-type-neg", "/v1/redeploy",
			RedeployRequest{Scenario: sc,
				Old: &hipo.Placement{Chargers: []hipo.PlacedCharger{{Type: -2}}},
				New: &hipo.Placement{}}, "old.chargers[0].type"},
		{"redeploy-neg-cost", "/v1/redeploy",
			RedeployRequest{Scenario: sc, Old: &hipo.Placement{}, New: &hipo.Placement{},
				Cost: hipo.RedeployCost{PerMeter: -1}}, "cost.per_meter"},
		{"diagnostics-neg-eps", "/v1/diagnostics",
			DiagnosticsRequest{Scenario: sc, Eps: -0.2}, "eps"},
		{"diagnostics-eps-above-half", "/v1/diagnostics",
			DiagnosticsRequest{Scenario: sc, Eps: 0.7}, "eps"},
		// With no (type, device) pair to count, ε must still be checked.
		{"diagnostics-eps-no-devices", "/v1/diagnostics",
			func() DiagnosticsRequest {
				bare := *sc
				bare.Devices = nil
				return DiagnosticsRequest{Scenario: &bare, Eps: 0.7}
			}(), "eps"},
	}
	square := []hipo.Point{{X: 8, Y: 8}, {X: 12, Y: 8}, {X: 12, Y: 12}, {X: 8, Y: 12}}
	for _, c := range []struct {
		name   string
		mutate func(*hipo.Scenario)
		field  string
	}{
		{"device-outside", func(s *hipo.Scenario) { s.Devices[0].Pos.X = -5 }, "scenario.devices[0].pos"},
		{"device-in-obstacle", func(s *hipo.Scenario) {
			s.Obstacles = []hipo.Obstacle{{Vertices: square}}
		}, "scenario.devices[0].pos"},
		{"power-row-short", func(s *hipo.Scenario) {
			s.DeviceTypes = append(s.DeviceTypes, s.DeviceTypes[0])
		}, "scenario.power[0]"},
		{"obstacle-two-vertices", func(s *hipo.Scenario) {
			s.Obstacles = []hipo.Obstacle{{Vertices: square[:2]}}
		}, "scenario.obstacles[0].vertices"},
	} {
		bad := testScenario()
		c.mutate(bad)
		cases = append(cases,
			reqCase{"solve-" + c.name, "/v1/solve", SolveRequest{Scenario: bad}, c.field},
			reqCase{"register-" + c.name, "/v1/scenarios", map[string]any{"scenario": bad}, c.field})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.endpoint, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, body %s, want 400", resp.StatusCode, body)
			}
			var e struct {
				Error string `json:"error"`
				Field string `json:"field"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("non-JSON error body %s: %v", body, err)
			}
			if e.Field != tc.field {
				t.Fatalf("field = %q (error %q), want %q", e.Field, e.Error, tc.field)
			}
			if !strings.Contains(e.Error, tc.field) {
				t.Errorf("error message %q does not name the field %q", e.Error, tc.field)
			}
		})
	}

	// A valid request on every touched endpoint must still pass (the golden
	// and metamorphic harnesses depend on unchanged happy paths).
	if resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Scenario: sc}); resp.StatusCode != 200 {
		t.Fatalf("valid solve now fails: %d %s", resp.StatusCode, body)
	}
}
