// Package hipo is a library for practical Heterogeneous wIreless charger
// Placement with Obstacles (HIPO), reproducing the system of Wang, Dai et
// al. (ICPP 2018 / IEEE TMC 2019): given heterogeneous rechargeable devices
// on a 2D plane with polygonal obstacles, it places heterogeneous
// directional chargers — positions and orientations — to maximize total
// charging utility, with a 1/2 − ε approximation guarantee.
//
// The pipeline follows the paper: a piecewise-constant approximation of the
// nonlinear charging power divides the plane into multi-feasible geometric
// areas; Practical Dominating Coverage Set (PDCS) extraction reduces the
// continuous strategy space to a finite candidate set; and a greedy
// algorithm maximizes the resulting monotone submodular objective under a
// partition matroid of per-type charger budgets.
//
// Quick start:
//
//	scenario := &hipo.Scenario{ ... }
//	placement, err := scenario.Solve()
//
// Extensions mirror the paper's Section 8: charger redeployment
// (RedeployMinTotal, RedeployMinMax), budgeted deployment (SolveBudgeted),
// and charging-utility balancing (SolveMaxMin, SolveProportionalFair).
package hipo

import (
	"encoding/json"
	"fmt"

	"hipo/internal/geom"
	"hipo/internal/model"
)

// Point is a location on the deployment plane.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

func (p Point) vec() geom.Vec  { return geom.V(p.X, p.Y) }
func fromVec(v geom.Vec) Point { return Point{v.X, v.Y} }

// ChargerSpec describes one heterogeneous charger type: its sector-ring
// charging area (Figure 1 of the paper) and how many units to place.
type ChargerSpec struct {
	// Name labels the type in reports.
	Name string `json:"name"`
	// Alpha is the charging angle α_s in radians (0, 2π].
	Alpha float64 `json:"alpha"`
	// DMin and DMax bound the sector ring: devices closer than DMin or
	// farther than DMax receive no power.
	DMin float64 `json:"dmin"`
	DMax float64 `json:"dmax"`
	// Count is the number of chargers of this type to place.
	Count int `json:"count"`
}

// DeviceSpec describes one heterogeneous rechargeable-device type.
type DeviceSpec struct {
	Name string `json:"name"`
	// Alpha is the power receiving angle α_o in radians.
	Alpha float64 `json:"alpha"`
	// PTh is the power saturation threshold of the utility model: a device
	// receiving PTh or more has utility 1.
	PTh float64 `json:"pth"`
}

// PowerParams are the constants of the empirical charging model
// P = A/((d+B)²) for one (charger type, device type) pair.
type PowerParams struct {
	A float64 `json:"a"`
	B float64 `json:"b"`
}

// Device is a rechargeable device instance with a fixed position and
// orientation.
type Device struct {
	Pos Point `json:"pos"`
	// Orient is the device's facing direction in radians.
	Orient float64 `json:"orient"`
	// Type indexes Scenario.DeviceTypes.
	Type int `json:"type"`
}

// Obstacle is a simple polygon that blocks both placement and line-of-sight
// power transfer.
type Obstacle struct {
	Vertices []Point `json:"vertices"`
}

// Scenario is a complete HIPO problem instance.
type Scenario struct {
	// Min and Max are the corners of the rectangular deployment region.
	Min Point `json:"min"`
	Max Point `json:"max"`
	// ChargerTypes, DeviceTypes, and Power define the heterogeneous
	// hardware; Power[q][t] are the constants for charger type q charging
	// device type t and must be a len(ChargerTypes) × len(DeviceTypes)
	// matrix.
	ChargerTypes []ChargerSpec   `json:"charger_types"`
	DeviceTypes  []DeviceSpec    `json:"device_types"`
	Power        [][]PowerParams `json:"power"`
	Devices      []Device        `json:"devices"`
	Obstacles    []Obstacle      `json:"obstacles,omitempty"`
}

// PlacedCharger is one placement decision: a charger of the given type at
// Pos facing Orient.
type PlacedCharger struct {
	Pos    Point   `json:"pos"`
	Orient float64 `json:"orient"`
	Type   int     `json:"type"`
}

// Placement is a solved charger deployment.
type Placement struct {
	Chargers []PlacedCharger `json:"chargers"`
	// Utility is the achieved total charging utility in [0, 1]: the mean of
	// per-device utilities under the exact (not approximated) power model.
	Utility float64 `json:"utility"`
	// CandidateCounts reports, per charger type, how many candidate
	// strategies PDCS extraction produced (after dominance filtering).
	CandidateCounts []int `json:"candidate_counts,omitempty"`
	// Trace is the per-stage timing/counter breakdown of the solve, present
	// only when the solve ran with WithTracer. Untraced placements serialize
	// exactly as before.
	Trace *TraceBreakdown `json:"trace,omitempty"`
}

// internalScenario converts the public scenario into the internal model and
// validates it.
func (s *Scenario) internalScenario() (*model.Scenario, error) {
	sc := &model.Scenario{
		Region: model.Region{Min: s.Min.vec(), Max: s.Max.vec()},
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
			Pos: d.Pos.vec(), Orient: d.Orient, Type: d.Type,
		})
	}
	for _, o := range s.Obstacles {
		var vs []geom.Vec
		for _, v := range o.Vertices {
			vs = append(vs, v.vec())
		}
		sc.Obstacles = append(sc.Obstacles, model.Obstacle{Shape: geom.Polygon{Vertices: vs}})
	}
	if err := sc.Validate(); err != nil {
		return nil, inputError("scenario", err)
	}
	return sc, nil
}

// Validate checks the scenario against the paper's Section 3 model, devices
// inside the region and outside every obstacle included. The error wraps a
// *FieldError rooted at "scenario".
func (s *Scenario) Validate() error {
	_, err := s.internalScenario()
	return err
}

// FieldError is an invalid input, located by the path of the offending
// field in this package's JSON schema, rooted at the name of the input that
// holds it: "scenario.devices[1].pos.x", "placement.chargers[0].type",
// "budget.per_meter". Every input rejection of this package wraps one;
// find it with errors.As.
type FieldError = model.FieldError

// inputError roots a validation failure (a bare *FieldError, as the model's
// validators return) at the name of the input that failed it.
func inputError(input string, err error) error {
	if fe, ok := err.(*FieldError); ok {
		err = fe.Within(input)
	}
	return fmt.Errorf("hipo: %w", err)
}

// MarshalJSON/UnmarshalJSON round-trip scenarios for the CLI tools; the
// default struct tags already produce a stable schema, so these exist only
// to pin the contract.
var (
	_ json.Marshaler   = (*Placement)(nil)
	_ json.Unmarshaler = (*Placement)(nil)
)

// MarshalJSON implements json.Marshaler.
func (p *Placement) MarshalJSON() ([]byte, error) {
	type alias Placement
	return json.Marshal((*alias)(p))
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Placement) UnmarshalJSON(b []byte) error {
	type alias Placement
	return json.Unmarshal(b, (*alias)(p))
}

func strategiesToPlaced(ss []model.Strategy) []PlacedCharger {
	out := make([]PlacedCharger, 0, len(ss))
	for _, s := range ss {
		out = append(out, PlacedCharger{Pos: fromVec(s.Pos), Orient: s.Orient, Type: s.Type})
	}
	return out
}

func placedToStrategies(ps []PlacedCharger) []model.Strategy {
	out := make([]model.Strategy, 0, len(ps))
	for _, p := range ps {
		out = append(out, model.Strategy{Pos: p.Pos.vec(), Orient: p.Orient, Type: p.Type})
	}
	return out
}
