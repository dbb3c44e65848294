package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hipo"
)

func writeJSON(t *testing.T, name string, v any) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func fieldScenario() *hipo.Scenario {
	return &hipo.Scenario{
		Min: hipo.Point{X: 0, Y: 0},
		Max: hipo.Point{X: 20, Y: 20},
		ChargerTypes: []hipo.ChargerSpec{
			{Name: "c", Alpha: math.Pi / 2, DMin: 1, DMax: 6, Count: 1},
		},
		DeviceTypes: []hipo.DeviceSpec{{Name: "d", Alpha: math.Pi, PTh: 0.05}},
		Power:       [][]hipo.PowerParams{{{A: 100, B: 40}}},
		Devices:     []hipo.Device{{Pos: hipo.Point{X: 10, Y: 10}, Orient: 0, Type: 0}},
	}
}

func TestRunHeatmap(t *testing.T) {
	scPath := writeJSON(t, "sc.json", fieldScenario())
	plPath := writeJSON(t, "pl.json", &hipo.Placement{Chargers: []hipo.PlacedCharger{
		{Pos: hipo.Point{X: 6, Y: 10}, Orient: 0, Type: 0},
	}})
	out := filepath.Join(t.TempDir(), "f.svg")
	if err := run(scPath, plPath, out, 24, 0); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "</svg>") {
		t.Error("truncated SVG")
	}
}

func TestRunBadProbe(t *testing.T) {
	scPath := writeJSON(t, "sc.json", fieldScenario())
	plPath := writeJSON(t, "pl.json", &hipo.Placement{})
	if err := run(scPath, plPath, "", 8, 5); err == nil {
		t.Error("out-of-range probe should fail")
	}
	// A charger type the scenario lacks used to panic in the sampler.
	plPath = writeJSON(t, "bad.json", &hipo.Placement{Chargers: []hipo.PlacedCharger{{Type: 7}}})
	if err := run(scPath, plPath, "", 8, 0); err == nil {
		t.Error("placement with an unknown charger type should fail")
	}
}

func TestRunMissingFiles(t *testing.T) {
	if err := run("nope.json", "nope.json", "", 8, 0); err == nil {
		t.Error("missing files should fail")
	}
}
