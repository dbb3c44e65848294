// Command hiposvg renders a scenario (and optionally a placement) as SVG,
// reproducing the instance illustrations of Figure 10.
//
// Usage:
//
//	hipogen -seed 3 > sc.json
//	hipo -in sc.json -out place.json
//	hiposvg -scenario sc.json -placement place.json -out instance.svg
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"hipo"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/svg"
)

func main() {
	var (
		scPath    = flag.String("scenario", "", "scenario JSON (required)")
		plPath    = flag.String("placement", "", "placement JSON (optional)")
		outPath   = flag.String("out", "", "output SVG (default stdout)")
		title     = flag.String("title", "", "caption")
		pxPerUnit = flag.Float64("scale", 12, "pixels per scenario unit")
		cellsType = flag.Int("cells", -1, "render the feasible geometric areas of this charger type instead of a placement")
		eps       = flag.Float64("eps", 0.15, "approximation parameter for -cells")
	)
	flag.Parse()
	if *scPath == "" {
		fmt.Fprintln(os.Stderr, "hiposvg: -scenario is required")
		os.Exit(1)
	}
	if err := run(*scPath, *plPath, *outPath, *title, *pxPerUnit, *cellsType, *eps); err != nil {
		fmt.Fprintln(os.Stderr, "hiposvg:", err)
		os.Exit(1)
	}
}

func run(scPath, plPath, outPath, title string, scale float64, cellsType int, eps float64) error {
	var pub hipo.Scenario
	if err := decodeFile(scPath, &pub); err != nil {
		return err
	}
	sc := toInternal(&pub)
	if err := sc.Validate(); err != nil {
		return err
	}
	var placed []model.Strategy
	if plPath != "" {
		var pl hipo.Placement
		if err := decodeFile(plPath, &pl); err != nil {
			return err
		}
		for _, c := range pl.Chargers {
			placed = append(placed, model.Strategy{
				Pos: geom.V(c.Pos.X, c.Pos.Y), Orient: c.Orient, Type: c.Type,
			})
		}
		if err := sc.ValidatePlacement(placed); err != nil {
			return fmt.Errorf("placement: %w", err)
		}
	}
	var out io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if cellsType >= 0 {
		if cellsType >= len(sc.ChargerTypes) {
			return fmt.Errorf("charger type %d out of range", cellsType)
		}
		return svg.RenderCells(out, sc, cellsType, eps, svg.Options{Scale: scale, Title: title})
	}
	return svg.Render(out, sc, placed, svg.Options{Scale: scale, Title: title})
}

func decodeFile(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewDecoder(f).Decode(v)
}

func toInternal(s *hipo.Scenario) *model.Scenario {
	sc := &model.Scenario{
		Region: model.Region{Min: geom.V(s.Min.X, s.Min.Y), Max: geom.V(s.Max.X, s.Max.Y)},
	}
	for _, c := range s.ChargerTypes {
		sc.ChargerTypes = append(sc.ChargerTypes, model.ChargerType{
			Name: c.Name, Alpha: c.Alpha, DMin: c.DMin, DMax: c.DMax, Count: c.Count,
		})
	}
	for _, d := range s.DeviceTypes {
		sc.DeviceTypes = append(sc.DeviceTypes, model.DeviceType{
			Name: d.Name, Alpha: d.Alpha, PTh: d.PTh,
		})
	}
	for _, row := range s.Power {
		var r []model.PowerParams
		for _, p := range row {
			r = append(r, model.PowerParams{A: p.A, B: p.B})
		}
		sc.Power = append(sc.Power, r)
	}
	for _, d := range s.Devices {
		sc.Devices = append(sc.Devices, model.Device{
			Pos: geom.V(d.Pos.X, d.Pos.Y), Orient: d.Orient, Type: d.Type,
		})
	}
	for _, o := range s.Obstacles {
		var vs []geom.Vec
		for _, v := range o.Vertices {
			vs = append(vs, geom.V(v.X, v.Y))
		}
		sc.Obstacles = append(sc.Obstacles, model.Obstacle{Shape: geom.Polygon{Vertices: vs}})
	}
	return sc
}
