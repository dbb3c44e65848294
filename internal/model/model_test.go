package model

import (
	"errors"
	"math"
	"testing"

	"hipo/internal/geom"
)

func basicScenario() *Scenario {
	return &Scenario{
		Region: Region{Min: geom.V(0, 0), Max: geom.V(40, 40)},
		ChargerTypes: []ChargerType{
			{Name: "c1", Alpha: math.Pi / 2, DMin: 1, DMax: 8, Count: 2},
		},
		DeviceTypes: []DeviceType{
			{Name: "d1", Alpha: math.Pi, PTh: 0.05},
		},
		Power: [][]PowerParams{{{A: 100, B: 40}}},
		Devices: []Device{
			{Pos: geom.V(10, 10), Orient: 0, Type: 0},
		},
		Obstacles: []Obstacle{
			{Shape: geom.Rect(20, 20, 25, 25)},
		},
	}
}

func TestScenarioValidateOK(t *testing.T) {
	if err := basicScenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

// TestScenarioValidateErrors checks that every rule rejects its defect with
// the *FieldError at the offending field's wire-schema path.
func TestScenarioValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		field  string
	}{
		{"empty region", func(s *Scenario) { s.Region.Max = s.Region.Min }, "max.x"},
		{"no charger types", func(s *Scenario) { s.ChargerTypes = nil }, "charger_types"},
		{"no device types", func(s *Scenario) { s.DeviceTypes = nil }, "device_types"},
		{"bad charger alpha", func(s *Scenario) { s.ChargerTypes[0].Alpha = -1 }, "charger_types[0].alpha"},
		{"alpha over 2π", func(s *Scenario) { s.ChargerTypes[0].Alpha = 7 }, "charger_types[0].alpha"},
		{"negative dmin", func(s *Scenario) { s.ChargerTypes[0].DMin = -1 }, "charger_types[0].dmin"},
		{"bad charger radii", func(s *Scenario) { s.ChargerTypes[0].DMax = 0.5 }, "charger_types[0].dmax"},
		{"negative count", func(s *Scenario) { s.ChargerTypes[0].Count = -1 }, "charger_types[0].count"},
		{"bad device alpha", func(s *Scenario) { s.DeviceTypes[0].Alpha = 0 }, "device_types[0].alpha"},
		{"bad pth", func(s *Scenario) { s.DeviceTypes[0].PTh = 0 }, "device_types[0].pth"},
		{"power rows", func(s *Scenario) { s.Power = nil }, "power"},
		{"power cols", func(s *Scenario) { s.Power[0] = nil }, "power[0]"},
		{"bad power constants", func(s *Scenario) { s.Power[0][0].A = 0 }, "power[0][0].a"},
		{"negative power b", func(s *Scenario) { s.Power[0][0].B = -3 }, "power[0][0].b"},
		{"unknown device type", func(s *Scenario) { s.Devices[0].Type = 5 }, "devices[0].type"},
		{"device outside region", func(s *Scenario) { s.Devices[0].Pos = geom.V(-1, 0) }, "devices[0].pos"},
		{"device inside obstacle", func(s *Scenario) { s.Devices[0].Pos = geom.V(22, 22) }, "devices[0].pos"},
		{"degenerate obstacle", func(s *Scenario) {
			s.Obstacles[0].Shape = geom.Poly(geom.V(0, 0), geom.V(1, 1))
		}, "obstacles[0].vertices"},
	}
	for _, c := range cases {
		sc := basicScenario()
		c.mutate(sc)
		checkField(t, c.name, sc.Validate(), c.field)
	}
}

// checkField fails unless err is the *FieldError at path field.
func checkField(t *testing.T, name string, err error, field string) {
	t.Helper()
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Path != field {
		t.Errorf("%s: error %v, want a *FieldError at %s", name, err, field)
	}
}

func TestFeasiblePosition(t *testing.T) {
	sc := basicScenario()
	if !sc.FeasiblePosition(geom.V(5, 5)) {
		t.Error("open position should be feasible")
	}
	if sc.FeasiblePosition(geom.V(22, 22)) {
		t.Error("inside obstacle should be infeasible")
	}
	if sc.FeasiblePosition(geom.V(-5, 5)) {
		t.Error("outside region should be infeasible")
	}
	// Obstacle boundary is allowed (chargers may be mounted flush).
	if !sc.FeasiblePosition(geom.V(20, 22)) {
		t.Error("obstacle boundary should be feasible")
	}
}

func TestLineOfSight(t *testing.T) {
	sc := basicScenario()
	if !sc.LineOfSight(geom.V(0, 0), geom.V(10, 10)) {
		t.Error("clear path should have LoS")
	}
	if sc.LineOfSight(geom.V(18, 22.5), geom.V(27, 22.5)) {
		t.Error("path through obstacle should be blocked")
	}
	if !sc.LineOfSight(geom.V(18, 30), geom.V(27, 30)) {
		t.Error("path above obstacle should be clear")
	}
}

func TestStrategySector(t *testing.T) {
	sc := basicScenario()
	s := Strategy{Pos: geom.V(5, 5), Orient: 0, Type: 0}
	sec := s.Sector(sc.ChargerTypes[0])
	if !sec.Contains(geom.V(9, 5)) {
		t.Error("sector should contain point straight ahead at d=4")
	}
	if sec.Contains(geom.V(5.5, 5)) {
		t.Error("sector should exclude point inside DMin")
	}
	if sec.Contains(geom.V(14, 5)) {
		t.Error("sector should exclude point beyond DMax")
	}
}

func TestTotalChargers(t *testing.T) {
	sc := basicScenario()
	sc.ChargerTypes = append(sc.ChargerTypes, ChargerType{
		Name: "c2", Alpha: math.Pi, DMin: 0.5, DMax: 5, Count: 3,
	})
	sc.Power = append(sc.Power, []PowerParams{{A: 50, B: 20}})
	if got := sc.TotalChargers(); got != 5 {
		t.Errorf("TotalChargers = %d, want 5", got)
	}
}

func TestClone(t *testing.T) {
	sc := basicScenario()
	cp := sc.Clone()
	cp.ChargerTypes[0].Alpha = 1
	cp.Devices[0].Pos = geom.V(1, 1)
	cp.Power[0][0].A = 7
	cp.Obstacles[0].Shape.Vertices[0] = geom.V(-1, -1)
	if sc.ChargerTypes[0].Alpha == 1 || sc.Devices[0].Pos.Eq(geom.V(1, 1)) ||
		sc.Power[0][0].A == 7 || sc.Obstacles[0].Shape.Vertices[0].Eq(geom.V(-1, -1)) {
		t.Error("Clone shares memory with the original")
	}
	if err := cp.Validate(); err == nil {
		// mutated clone may be invalid; only the original must stay valid
		_ = err
	}
	if err := sc.Validate(); err != nil {
		t.Errorf("original corrupted by clone mutation: %v", err)
	}
}

func TestRegionGeometry(t *testing.T) {
	r := Region{Min: geom.V(1, 2), Max: geom.V(5, 10)}
	if r.Width() != 4 || r.Height() != 8 {
		t.Errorf("width/height = %v/%v", r.Width(), r.Height())
	}
	if !r.Contains(geom.V(1, 2)) || !r.Contains(geom.V(5, 10)) || !r.Contains(geom.V(3, 6)) {
		t.Error("containment broken")
	}
	if r.Contains(geom.V(0, 6)) || r.Contains(geom.V(3, 11)) {
		t.Error("exterior points contained")
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name   string
		mutate func(*Scenario)
		field  string
	}{
		{"nan region", func(s *Scenario) { s.Region.Max.X = nan }, "max.x"},
		{"inf region", func(s *Scenario) { s.Region.Min.Y = inf }, "min.y"},
		{"nan charger alpha", func(s *Scenario) { s.ChargerTypes[0].Alpha = nan }, "charger_types[0].alpha"},
		{"inf charger dmax", func(s *Scenario) { s.ChargerTypes[0].DMax = inf }, "charger_types[0].dmax"},
		{"nan device alpha", func(s *Scenario) { s.DeviceTypes[0].Alpha = nan }, "device_types[0].alpha"},
		{"nan pth", func(s *Scenario) { s.DeviceTypes[0].PTh = nan }, "device_types[0].pth"},
		{"nan power", func(s *Scenario) { s.Power[0][0].A = nan }, "power[0][0].a"},
		{"nan device pos", func(s *Scenario) { s.Devices[0].Pos.X = nan }, "devices[0].pos.x"},
		{"inf device pos y", func(s *Scenario) { s.Devices[0].Pos.Y = -inf }, "devices[0].pos.y"},
		{"inf device orient", func(s *Scenario) { s.Devices[0].Orient = inf }, "devices[0].orient"},
		{"nan obstacle vertex", func(s *Scenario) { s.Obstacles[0].Shape.Vertices[0].X = nan }, "obstacles[0].vertices[0].x"},
		{"nan obstacle vertex y", func(s *Scenario) { s.Obstacles[0].Shape.Vertices[1].Y = nan }, "obstacles[0].vertices[1].y"},
	}
	for _, c := range cases {
		sc := basicScenario()
		c.mutate(sc)
		checkField(t, c.name, sc.Validate(), c.field)
	}
}
