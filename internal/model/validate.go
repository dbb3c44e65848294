package model

import (
	"fmt"
	"math"

	"hipo/internal/geom"
)

// FieldError is an invalid input, located by the path of the offending
// field in the public JSON schema: "min.x", "charger_types[0].alpha",
// "power[0][0].a", "devices[1].pos.x", "obstacles[0].vertices[1].y".
// Every rejection of this package's validators is one. The path is built
// only once a check has failed, so validating a valid input formats
// nothing.
type FieldError struct {
	Path string
	Msg  string
}

func (e *FieldError) Error() string { return e.Path + ": " + e.Msg }

// Within returns the error with its path rooted under parent, the field or
// argument that holds the validated value ("devices[1]" + "pos.x" =
// "devices[1].pos.x").
func (e *FieldError) Within(parent string) *FieldError {
	return &FieldError{Path: parent + "." + e.Path, Msg: e.Msg}
}

// Errorf returns the FieldError at path with a formatted message.
func Errorf(path, format string, args ...any) *FieldError {
	return &FieldError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Finite reports whether x is neither NaN nor infinite.
func Finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// maxAngle bounds charging and receiving angles: 2π plus the geometric
// tolerance.
const maxAngle = 2*math.Pi + geom.Eps

func indexed(name string, i int) string { return fmt.Sprintf("%s[%d]", name, i) }

// Validate checks the scenario against the model of Section 3: a finite,
// non-empty region; charger types with α ∈ (0, 2π] and 0 ≤ d_min < d_max;
// device types with α ∈ (0, 2π] and P_th > 0; one power row per charger
// type and one positive (a, b) per device type in each; obstacles that are
// finite polygons; and devices (ValidateDevice) inside the region and
// outside every obstacle. The error is a *FieldError.
func (sc *Scenario) Validate() error {
	if err := finitePoint(sc.Region.Min); err != nil {
		return err.Within("min")
	}
	if err := finitePoint(sc.Region.Max); err != nil {
		return err.Within("max")
	}
	switch {
	case sc.Region.Width() <= 0:
		return Errorf("max.x", "must exceed min.x %v, got %v", sc.Region.Min.X, sc.Region.Max.X)
	case sc.Region.Height() <= 0:
		return Errorf("max.y", "must exceed min.y %v, got %v", sc.Region.Min.Y, sc.Region.Max.Y)
	case len(sc.ChargerTypes) == 0:
		return Errorf("charger_types", "at least one charger type is required")
	case len(sc.DeviceTypes) == 0:
		return Errorf("device_types", "at least one device type is required")
	}
	for q, c := range sc.ChargerTypes {
		if err := c.check(); err != nil {
			return err.Within(indexed("charger_types", q))
		}
	}
	for t, d := range sc.DeviceTypes {
		if err := d.check(); err != nil {
			return err.Within(indexed("device_types", t))
		}
	}
	if len(sc.Power) != len(sc.ChargerTypes) {
		return Errorf("power", "has %d rows, want one per charger type (%d)", len(sc.Power), len(sc.ChargerTypes))
	}
	for q, row := range sc.Power {
		if len(row) != len(sc.DeviceTypes) {
			return Errorf(indexed("power", q), "has %d entries, want one per device type (%d)", len(row), len(sc.DeviceTypes))
		}
		for t, p := range row {
			if err := p.check(); err != nil {
				return err.Within(fmt.Sprintf("power[%d][%d]", q, t))
			}
		}
	}
	for h, o := range sc.Obstacles {
		if err := o.check(); err != nil {
			return err.Within(indexed("obstacles", h))
		}
	}
	for i, d := range sc.Devices {
		if err := sc.ValidateDevice(i, d); err != nil {
			return err
		}
	}
	return nil
}

// ValidateDevice checks d as devices[i] of the scenario: a finite position
// and orientation, a type of the scenario, inside the region and outside
// every obstacle. It is the rule Validate applies to each device, so a
// device added or moved after validation is judged, and reported, exactly
// as Validate would judge the resulting scenario.
func (sc *Scenario) ValidateDevice(i int, d Device) error {
	err := finitePoint(d.Pos)
	switch {
	case err != nil:
		err = err.Within("pos")
	case !Finite(d.Orient):
		err = Errorf("orient", "must be finite, got %v", d.Orient)
	case d.Type < 0 || d.Type >= len(sc.DeviceTypes):
		err = Errorf("type", "must index device_types (0..%d), got %d", len(sc.DeviceTypes)-1, d.Type)
	case !sc.Region.Contains(d.Pos):
		err = Errorf("pos", "(%v, %v) lies outside the region", d.Pos.X, d.Pos.Y)
	}
	for h := 0; err == nil && h < len(sc.Obstacles); h++ {
		err = inside(d, h, sc.Obstacles[h])
	}
	if err != nil {
		return err.Within(indexed("devices", i))
	}
	return nil
}

// ValidateObstacle checks o as obstacles[h] of the scenario: finite
// vertices forming a polygon (geom.Polygon.Validate) with no device of the
// scenario strictly inside it. For the scenario with o appended as
// obstacles[len(Obstacles)], it reports what Validate would.
func (sc *Scenario) ValidateObstacle(h int, o Obstacle) error {
	if err := o.check(); err != nil {
		return err.Within(indexed("obstacles", h))
	}
	for i, d := range sc.Devices {
		if err := inside(d, h, o); err != nil {
			return err.Within(indexed("devices", i))
		}
	}
	return nil
}

// ValidatePlacement checks placed strategies as a placement's "chargers":
// finite positions and orientations and charger types of the scenario, so
// scoring them can neither index past the type tables nor spread NaN into
// every metric.
func (sc *Scenario) ValidatePlacement(placed []Strategy) error {
	for i, s := range placed {
		err := finitePoint(s.Pos)
		switch {
		case err != nil:
			err = err.Within("pos")
		case !Finite(s.Orient):
			err = Errorf("orient", "must be finite, got %v", s.Orient)
		case s.Type < 0 || s.Type >= len(sc.ChargerTypes):
			err = Errorf("type", "must index charger_types (0..%d), got %d", len(sc.ChargerTypes)-1, s.Type)
		}
		if err != nil {
			return err.Within(indexed("chargers", i))
		}
	}
	return nil
}

// inside rejects a device strictly inside obstacle h (obstacle boundaries
// are allowed, as they are for chargers).
func inside(d Device, h int, o Obstacle) *FieldError {
	if o.Shape.ContainsInterior(d.Pos) {
		return Errorf("pos", "(%v, %v) lies inside obstacle %d", d.Pos.X, d.Pos.Y, h)
	}
	return nil
}

func finitePoint(p geom.Vec) *FieldError {
	switch {
	case !Finite(p.X):
		return Errorf("x", "must be finite, got %v", p.X)
	case !Finite(p.Y):
		return Errorf("y", "must be finite, got %v", p.Y)
	}
	return nil
}

func (c ChargerType) check() *FieldError {
	switch {
	case !Finite(c.Alpha) || c.Alpha <= 0 || c.Alpha > maxAngle:
		return Errorf("alpha", "must be in (0, 2π], got %v", c.Alpha)
	case !Finite(c.DMin) || c.DMin < 0:
		return Errorf("dmin", "must be finite and >= 0, got %v", c.DMin)
	case !Finite(c.DMax) || c.DMax <= c.DMin:
		return Errorf("dmax", "must be finite and exceed dmin %v, got %v", c.DMin, c.DMax)
	case c.Count < 0:
		return Errorf("count", "must be >= 0, got %d", c.Count)
	}
	return nil
}

func (d DeviceType) check() *FieldError {
	switch {
	case !Finite(d.Alpha) || d.Alpha <= 0 || d.Alpha > maxAngle:
		return Errorf("alpha", "must be in (0, 2π], got %v", d.Alpha)
	case !Finite(d.PTh) || d.PTh <= 0:
		return Errorf("pth", "must be finite and > 0, got %v", d.PTh)
	}
	return nil
}

func (p PowerParams) check() *FieldError {
	switch {
	case !Finite(p.A) || p.A <= 0:
		return Errorf("a", "must be finite and > 0, got %v", p.A)
	case !Finite(p.B) || p.B <= 0:
		return Errorf("b", "must be finite and > 0, got %v", p.B)
	}
	return nil
}

func (o Obstacle) check() *FieldError {
	for k, v := range o.Shape.Vertices {
		if err := finitePoint(v); err != nil {
			return err.Within(indexed("vertices", k))
		}
	}
	if err := o.Shape.Validate(); err != nil {
		return Errorf("vertices", "%v", err)
	}
	return nil
}
