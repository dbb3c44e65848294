// Package model defines the HIPO problem entities of Section 3: heterogeneous
// charger and device types, obstacles, deployment scenarios, and placement
// strategies. It is purely declarative; the charging physics live in
// internal/power and the algorithms in internal/core.
package model

import (
	"fmt"
	"math"

	"hipo/internal/geom"
)

// ChargerType describes one heterogeneous charger class (Table 2): its
// sector-ring charging area and how many units of it are available for
// placement.
type ChargerType struct {
	Name  string  // human-readable label, e.g. "type-1"
	Alpha float64 // charging angle α_s (radians)
	DMin  float64 // nearest charging distance d_min
	DMax  float64 // farthest charging distance d_max
	Count int     // N_q: number of chargers of this type to place
}

// Validate checks physical plausibility of the charger type.
func (c ChargerType) Validate() error {
	switch {
	case !isFinite(c.Alpha) || !isFinite(c.DMin) || !isFinite(c.DMax):
		return fmt.Errorf("model: charger %q: non-finite parameters", c.Name)
	case c.Alpha <= 0 || c.Alpha > 2*math.Pi+geom.Eps:
		return fmt.Errorf("model: charger %q: alpha %v out of (0, 2π]", c.Name, c.Alpha)
	case c.DMin < 0:
		return fmt.Errorf("model: charger %q: negative DMin %v", c.Name, c.DMin)
	case c.DMax <= c.DMin:
		return fmt.Errorf("model: charger %q: DMax %v must exceed DMin %v", c.Name, c.DMax, c.DMin)
	case c.Count < 0:
		return fmt.Errorf("model: charger %q: negative Count %d", c.Name, c.Count)
	}
	return nil
}

// DeviceType describes one heterogeneous rechargeable-device class (Table
// 3): its receiving angle and power saturation threshold.
type DeviceType struct {
	Name  string
	Alpha float64 // receiving angle α_o (radians)
	PTh   float64 // power threshold P_th of the utility model, Eq. (3)
}

// Validate checks physical plausibility of the device type.
func (d DeviceType) Validate() error {
	switch {
	case !isFinite(d.Alpha) || !isFinite(d.PTh):
		return fmt.Errorf("model: device %q: non-finite parameters", d.Name)
	case d.Alpha <= 0 || d.Alpha > 2*math.Pi+geom.Eps:
		return fmt.Errorf("model: device %q: alpha %v out of (0, 2π]", d.Name, d.Alpha)
	case d.PTh <= 0:
		return fmt.Errorf("model: device %q: non-positive PTh %v", d.Name, d.PTh)
	}
	return nil
}

// PowerParams are the per (charger type, device type) constants a and b of
// the empirical charging model Eq. (1): P = a/((d+b)²) (Table 4).
type PowerParams struct {
	A, B float64
}

// Validate checks the constants.
func (p PowerParams) Validate() error {
	if !isFinite(p.A) || !isFinite(p.B) {
		return fmt.Errorf("model: power params a=%v b=%v must be finite", p.A, p.B)
	}
	if p.A <= 0 || p.B <= 0 {
		return fmt.Errorf("model: power params a=%v b=%v must be positive", p.A, p.B)
	}
	return nil
}

// Device is a rechargeable device instance with fixed position and
// orientation (Section 3.1).
type Device struct {
	Pos    geom.Vec
	Orient float64 // orientation φ_o (radians)
	Type   int     // index into Scenario.DeviceTypes
}

// Obstacle is a polygonal obstacle. Chargers and devices may not be placed
// inside it and it blocks line-of-sight power without reflection.
type Obstacle struct {
	Shape geom.Polygon
}

// Strategy is a charger placement decision: a position, an orientation, and
// the charger type being placed (the paper's 〈s_i, φ_i〉 pairs, extended
// with the type index for the heterogeneous setting).
type Strategy struct {
	Pos    geom.Vec
	Orient float64
	Type   int // index into Scenario.ChargerTypes
}

// Sector returns the charging sector ring this strategy covers for charger
// type ct.
func (s Strategy) Sector(ct ChargerType) geom.SectorRing {
	return geom.SectorRing{
		Apex:   s.Pos,
		Orient: s.Orient,
		Alpha:  ct.Alpha,
		RMin:   ct.DMin,
		RMax:   ct.DMax,
	}
}

// Region is the axis-aligned rectangular deployment plane γ.
type Region struct {
	Min, Max geom.Vec
}

// Contains reports whether p lies in the region (boundary inclusive).
func (r Region) Contains(p geom.Vec) bool {
	return p.X >= r.Min.X-geom.Eps && p.X <= r.Max.X+geom.Eps &&
		p.Y >= r.Min.Y-geom.Eps && p.Y <= r.Max.Y+geom.Eps
}

// Width returns the horizontal extent of the region.
func (r Region) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of the region.
func (r Region) Height() float64 { return r.Max.Y - r.Min.Y }

// Scenario is a complete HIPO problem instance.
type Scenario struct {
	Region       Region
	ChargerTypes []ChargerType
	DeviceTypes  []DeviceType
	// Power[q][t] are the model constants for charger type q charging
	// device type t.
	Power     [][]PowerParams
	Devices   []Device
	Obstacles []Obstacle

	// vis, when non-nil, accelerates the occlusion predicates below. It is
	// attached by the solver pipeline (internal/visindex) and must answer
	// exactly as the brute-force scans would.
	vis VisibilityIndex
}

// VisibilityIndex accelerates a scenario's occlusion predicates. An
// implementation must be safe for concurrent readers and must return
// bit-for-bit the same answers as the brute-force obstacle scans in
// LineOfSight and FeasiblePosition: the index is a pure accelerator, never
// an approximation (differential tests in internal/visindex enforce this).
type VisibilityIndex interface {
	// LineOfSight reports whether the open segment a–b is free of obstacles.
	LineOfSight(a, b geom.Vec) bool
	// PointInObstacle reports whether p lies strictly inside any obstacle.
	PointInObstacle(p geom.Vec) bool
}

// AttachVisibilityIndex installs an occlusion accelerator. Attach before
// sharing the scenario between goroutines, and never mutate Obstacles
// afterwards — the index holds derived geometry. Clone does not carry the
// index, so clones fall back to brute force until re-indexed.
func (sc *Scenario) AttachVisibilityIndex(ix VisibilityIndex) { sc.vis = ix }

// AttachedVisibilityIndex returns the installed accelerator, or nil.
func (sc *Scenario) AttachedVisibilityIndex() VisibilityIndex { return sc.vis }

// Validate checks structural consistency of the scenario.
func (sc *Scenario) Validate() error {
	if !isFinite(sc.Region.Min.X) || !isFinite(sc.Region.Min.Y) ||
		!isFinite(sc.Region.Max.X) || !isFinite(sc.Region.Max.Y) {
		return fmt.Errorf("model: non-finite region")
	}
	if sc.Region.Width() <= 0 || sc.Region.Height() <= 0 {
		return fmt.Errorf("model: empty region")
	}
	if len(sc.ChargerTypes) == 0 {
		return fmt.Errorf("model: no charger types")
	}
	if len(sc.DeviceTypes) == 0 {
		return fmt.Errorf("model: no device types")
	}
	for _, c := range sc.ChargerTypes {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	for _, d := range sc.DeviceTypes {
		if err := d.Validate(); err != nil {
			return err
		}
	}
	if len(sc.Power) != len(sc.ChargerTypes) {
		return fmt.Errorf("model: power matrix has %d rows, want %d", len(sc.Power), len(sc.ChargerTypes))
	}
	for q, row := range sc.Power {
		if len(row) != len(sc.DeviceTypes) {
			return fmt.Errorf("model: power row %d has %d entries, want %d", q, len(row), len(sc.DeviceTypes))
		}
		for t, p := range row {
			if err := p.Validate(); err != nil {
				return fmt.Errorf("model: power[%d][%d]: %w", q, t, err)
			}
		}
	}
	for i, d := range sc.Devices {
		if !isFinite(d.Pos.X) || !isFinite(d.Pos.Y) || !isFinite(d.Orient) {
			return fmt.Errorf("model: device %d has non-finite position or orientation", i)
		}
		if d.Type < 0 || d.Type >= len(sc.DeviceTypes) {
			return fmt.Errorf("model: device %d has unknown type %d", i, d.Type)
		}
		if !sc.Region.Contains(d.Pos) {
			return fmt.Errorf("model: device %d at %v outside region", i, d.Pos)
		}
		for h, o := range sc.Obstacles {
			if o.Shape.ContainsInterior(d.Pos) {
				return fmt.Errorf("model: device %d at %v inside obstacle %d", i, d.Pos, h)
			}
		}
	}
	for h, o := range sc.Obstacles {
		if err := o.Shape.Validate(); err != nil {
			return fmt.Errorf("model: obstacle %d: %w", h, err)
		}
		for _, v := range o.Shape.Vertices {
			if !isFinite(v.X) || !isFinite(v.Y) {
				return fmt.Errorf("model: obstacle %d has non-finite vertex", h)
			}
		}
	}
	return nil
}

// isFinite reports whether x is neither NaN nor infinite.
func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// TotalChargers returns Σ_q N_q, the total number of chargers to place.
func (sc *Scenario) TotalChargers() int {
	n := 0
	for _, c := range sc.ChargerTypes {
		n += c.Count
	}
	return n
}

// FeasiblePosition reports whether a charger may be placed at p: inside the
// region and not strictly inside any obstacle.
func (sc *Scenario) FeasiblePosition(p geom.Vec) bool {
	if !sc.Region.Contains(p) {
		return false
	}
	if sc.vis != nil {
		return !sc.vis.PointInObstacle(p)
	}
	return !BruteForce(sc.Obstacles).PointInObstacle(p)
}

// LineOfSight reports whether the open segment between a and b is free of
// obstacles (the s_i o_j ∩ h_k = ∅ condition of Eq. (1)). With an attached
// VisibilityIndex the query is answered through the index; the answer is
// identical either way.
func (sc *Scenario) LineOfSight(a, b geom.Vec) bool {
	if sc.vis != nil {
		return sc.vis.LineOfSight(a, b)
	}
	return BruteForce(sc.Obstacles).LineOfSight(a, b)
}

// BruteForce is the VisibilityIndex that answers by exhaustive scan over
// its obstacles: the predicates' own fallback without an attached index,
// and the differential reference for the spatial index and the baseline
// arm of the visibility benchmarks. Attached to a scenario, it is the
// brute-force arm of the solver's differential tests, because the solver
// keeps an attached index it does not own (visindex.Ensure) instead of
// building the spatial one.
type BruteForce []Obstacle

// LineOfSight reports whether the open segment a–b is free of obstacles.
func (bf BruteForce) LineOfSight(a, b geom.Vec) bool {
	s := geom.Seg(a, b)
	for _, o := range bf {
		if o.Shape.BlocksSegment(s) {
			return false
		}
	}
	return true
}

// PointInObstacle reports whether p lies strictly inside any obstacle.
func (bf BruteForce) PointInObstacle(p geom.Vec) bool {
	for _, o := range bf {
		if o.Shape.ContainsInterior(p) {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the scenario. Sweeping experiments mutate
// clones rather than shared instances. Any attached VisibilityIndex is
// deliberately dropped: a clone is free to mutate its obstacles, which
// would silently desynchronize an inherited index.
func (sc *Scenario) Clone() *Scenario {
	out := &Scenario{
		Region:       sc.Region,
		ChargerTypes: append([]ChargerType(nil), sc.ChargerTypes...),
		DeviceTypes:  append([]DeviceType(nil), sc.DeviceTypes...),
		Devices:      append([]Device(nil), sc.Devices...),
	}
	out.Power = make([][]PowerParams, len(sc.Power))
	for q, row := range sc.Power {
		out.Power[q] = append([]PowerParams(nil), row...)
	}
	out.Obstacles = make([]Obstacle, len(sc.Obstacles))
	for h, o := range sc.Obstacles {
		out.Obstacles[h] = Obstacle{Shape: geom.Polygon{
			Vertices: append([]geom.Vec(nil), o.Shape.Vertices...),
		}}
	}
	return out
}
