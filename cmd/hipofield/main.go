// Command hipofield renders the charging-power field of a placement as an
// SVG heatmap: the power an omnidirectional probe would harvest at each
// point, honoring charger sectors and obstacle shadows. Useful for seeing
// where a placement leaves dead zones.
//
// Usage:
//
//	hipogen -seed 3 > sc.json
//	hipo -in sc.json -out place.json
//	hipofield -scenario sc.json -placement place.json -out field.svg
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"hipo"
)

func main() {
	var (
		scPath  = flag.String("scenario", "", "scenario JSON (required)")
		plPath  = flag.String("placement", "", "placement JSON (required)")
		outPath = flag.String("out", "", "output SVG (default stdout)")
		res     = flag.Int("res", 120, "grid resolution per axis")
		probe   = flag.Int("probe", 0, "device type index calibrating the probe")
	)
	flag.Parse()
	if *scPath == "" || *plPath == "" {
		fmt.Fprintln(os.Stderr, "hipofield: -scenario and -placement are required")
		os.Exit(1)
	}
	if err := run(*scPath, *plPath, *outPath, *res, *probe); err != nil {
		fmt.Fprintln(os.Stderr, "hipofield:", err)
		os.Exit(1)
	}
}

// run samples the field through the library's Scenario.Field, which
// validates the scenario, the placement and the probe type.
func run(scPath, plPath, outPath string, res, probe int) error {
	var sc hipo.Scenario
	if err := decodeFile(scPath, &sc); err != nil {
		return err
	}
	var pl hipo.Placement
	if err := decodeFile(plPath, &pl); err != nil {
		return err
	}
	f, err := sc.Field(&pl, probe, res)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "peak probe power %.4f; coverage ≥ Pth: %.1f%%\n",
		f.Peak, 100*f.CoverageAtPth)

	var out io.Writer = os.Stdout
	if outPath != "" {
		file, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer file.Close()
		out = file
	}
	return f.WriteHeatmap(out)
}

func decodeFile(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewDecoder(f).Decode(v)
}
