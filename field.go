package hipo

import (
	"fmt"
	"io"

	"hipo/internal/field"
	"hipo/internal/model"
)

// PowerField is a sampled map of the charging power a virtual
// omnidirectional probe would harvest across the deployment region under a
// placement. Cells inside obstacles hold NaN.
type PowerField struct {
	// Values[iy][ix] is the probe power at the cell center; row 0 is the
	// bottom of the region.
	Values [][]float64 `json:"values"`
	// NX, NY are the grid dimensions.
	NX int `json:"nx"`
	NY int `json:"ny"`
	// Peak is the maximum sampled power.
	Peak float64 `json:"peak"`
	// CoverageAtPth is the fraction of non-obstacle cells receiving at
	// least the probe device type's power threshold.
	CoverageAtPth float64 `json:"coverage_at_pth"`

	sc   *model.Scenario // the validated scenario the field was sampled on
	grid *field.Grid
}

// Field samples the probe-power field of a placement on a res × res grid.
// probeType selects which device type's power constants and threshold
// calibrate the probe. Useful for spotting dead zones a placement leaves.
// The placement is checked as in Evaluate.
func (s *Scenario) Field(p *Placement, probeType, res int) (*PowerField, error) {
	sc, err := s.internalScenario()
	if err != nil {
		return nil, err
	}
	if probeType < 0 || probeType >= len(sc.DeviceTypes) {
		return nil, fmt.Errorf("hipo: probe type %d out of range", probeType)
	}
	if res < 2 {
		return nil, fmt.Errorf("hipo: field resolution %d too small", res)
	}
	placed := placedToStrategies(p.Chargers)
	if err := sc.ValidatePlacement(placed); err != nil {
		return nil, inputError("placement", err)
	}
	grid := field.Sample(sc, placed, probeType, res, res, 0)
	return &PowerField{
		Values:        grid.Values,
		NX:            grid.NX,
		NY:            grid.NY,
		Peak:          grid.MaxValue(),
		CoverageAtPth: grid.CoverageFraction(sc.DeviceTypes[probeType].PTh),
		sc:            sc,
		grid:          grid,
	}, nil
}

// WriteHeatmap renders the field as an SVG heatmap.
func (f *PowerField) WriteHeatmap(w io.Writer) error {
	return field.RenderHeatmap(w, f.sc, f.grid)
}
