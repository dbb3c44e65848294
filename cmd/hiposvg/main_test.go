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

func testScenario() *hipo.Scenario {
	return &hipo.Scenario{
		Min: hipo.Point{X: 0, Y: 0},
		Max: hipo.Point{X: 20, Y: 20},
		ChargerTypes: []hipo.ChargerSpec{
			{Name: "c", Alpha: math.Pi / 2, DMin: 1, DMax: 5, Count: 1},
		},
		DeviceTypes: []hipo.DeviceSpec{{Name: "d", Alpha: math.Pi, PTh: 0.05}},
		Power:       [][]hipo.PowerParams{{{A: 100, B: 40}}},
		Devices:     []hipo.Device{{Pos: hipo.Point{X: 10, Y: 10}, Orient: 0, Type: 0}},
		Obstacles: []hipo.Obstacle{
			{Vertices: []hipo.Point{{X: 2, Y: 2}, {X: 4, Y: 2}, {X: 4, Y: 4}, {X: 2, Y: 4}}},
		},
	}
}

func TestRunRendersSVG(t *testing.T) {
	scPath := writeJSON(t, "sc.json", testScenario())
	plPath := writeJSON(t, "pl.json", &hipo.Placement{Chargers: []hipo.PlacedCharger{
		{Pos: hipo.Point{X: 7, Y: 10}, Orient: 0, Type: 0},
	}})
	outPath := filepath.Join(t.TempDir(), "out.svg")
	if err := run(scPath, plPath, outPath, "demo", 10, -1, 0.15); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	for _, want := range []string{"<svg", "</svg>", "demo", "<polygon"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestRunWithoutPlacement(t *testing.T) {
	scPath := writeJSON(t, "sc.json", testScenario())
	outPath := filepath.Join(t.TempDir(), "out.svg")
	if err := run(scPath, "", outPath, "", 10, -1, 0.15); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "missing.json"), "", "", "", 10, -1, 0.15); err == nil {
		t.Error("missing scenario should fail")
	}
	// Invalid scenario (no charger types).
	bad := writeJSON(t, "bad.json", &hipo.Scenario{Max: hipo.Point{X: 1, Y: 1}})
	if err := run(bad, "", "", "", 10, -1, 0.15); err == nil {
		t.Error("invalid scenario should fail")
	}
	// A charger type the scenario lacks used to panic in the renderer.
	scPath := writeJSON(t, "sc.json", testScenario())
	plPath := writeJSON(t, "pl.json", &hipo.Placement{Chargers: []hipo.PlacedCharger{{Type: 7}}})
	if err := run(scPath, plPath, "", "", 10, -1, 0.15); err == nil {
		t.Error("placement with an unknown charger type should fail")
	}
}

func TestRunRendersCells(t *testing.T) {
	scPath := writeJSON(t, "sc.json", testScenario())
	outPath := filepath.Join(t.TempDir(), "cells.svg")
	if err := run(scPath, "", outPath, "cells", 10, 0, 0.15); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "<path") {
		t.Error("cell paths missing")
	}
	// Out-of-range type errors.
	if err := run(scPath, "", "", "", 10, 9, 0.15); err == nil {
		t.Error("bad cells type should fail")
	}
}

func TestToInternalPreservesGeometry(t *testing.T) {
	pub := testScenario()
	sc := toInternal(pub)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sc.Obstacles[0].Shape.Vertices) != 4 {
		t.Error("obstacle vertices lost")
	}
	if sc.Devices[0].Pos.X != 10 {
		t.Error("device position lost")
	}
}
