package discretize

import (
	"math"
	"slices"
	"testing"

	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/visindex"
)

func twoDeviceScenario() *model.Scenario {
	return &model.Scenario{
		Region: model.Region{Min: geom.V(0, 0), Max: geom.V(40, 40)},
		ChargerTypes: []model.ChargerType{
			{Name: "c1", Alpha: math.Pi / 2, DMin: 2, DMax: 8, Count: 2},
		},
		DeviceTypes: []model.DeviceType{
			{Name: "d1", Alpha: math.Pi, PTh: 0.05},
		},
		Power: [][]model.PowerParams{{{A: 100, B: 40}}},
		Devices: []model.Device{
			{Pos: geom.V(15, 20), Orient: 0, Type: 0},
			{Pos: geom.V(25, 20), Orient: math.Pi, Type: 0},
		},
	}
}

func TestRadiiIncreasingWithinRange(t *testing.T) {
	sc := twoDeviceScenario()
	rs := Radii(sc, 0, 0, 0.3)
	if len(rs) < 2 {
		t.Fatalf("too few radii: %v", rs)
	}
	if rs[0] != sc.ChargerTypes[0].DMin {
		t.Errorf("first radius = %v, want DMin", rs[0])
	}
	last := rs[len(rs)-1]
	if math.Abs(last-sc.ChargerTypes[0].DMax) > 1e-9 {
		t.Errorf("last radius = %v, want DMax", last)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i] <= rs[i-1] {
			t.Fatalf("radii not increasing: %v", rs)
		}
	}
}

func TestReceivingRing(t *testing.T) {
	sc := twoDeviceScenario()
	r := ReceivingRing(sc, 0, 0)
	if r.Apex != sc.Devices[0].Pos {
		t.Error("apex mismatch")
	}
	if r.RMin != 2 || r.RMax != 8 {
		t.Errorf("radii = %v,%v", r.RMin, r.RMax)
	}
	if r.Alpha != math.Pi {
		t.Errorf("alpha = %v", r.Alpha)
	}
	// Device faces +x, α=π: points left of the device (negative x side) are
	// outside the receiving area.
	if r.Contains(geom.V(10, 20)) {
		t.Error("point behind device should be outside receiving ring")
	}
	if !r.Contains(geom.V(20, 20)) {
		t.Error("point ahead of device should be inside receiving ring")
	}
}

func TestCandidatePositionsBasic(t *testing.T) {
	sc := twoDeviceScenario()
	cfg := Config{Eps1: 0.4}
	ps := CandidatePositions(sc, 0, cfg)
	if len(ps) == 0 {
		t.Fatal("no candidate positions")
	}
	ct := sc.ChargerTypes[0]
	for _, p := range ps {
		if !sc.FeasiblePosition(p) {
			t.Fatalf("infeasible candidate %v", p)
		}
		useful := false
		for _, d := range sc.Devices {
			dist := p.Dist(d.Pos)
			if dist >= ct.DMin-1e-9 && dist <= ct.DMax+1e-9 {
				useful = true
			}
		}
		if !useful {
			t.Fatalf("useless candidate %v (out of range of all devices)", p)
		}
	}
	// Deduplication: no two candidates within 1e-6.
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			if ps[i].Dist(ps[j]) < 1e-6 {
				t.Fatalf("duplicate candidates %v %v", ps[i], ps[j])
			}
		}
	}
}

func TestCandidatePositionsObstacleExclusion(t *testing.T) {
	sc := twoDeviceScenario()
	sc.Obstacles = []model.Obstacle{{Shape: geom.Rect(18, 18, 22, 22)}}
	ps := CandidatePositions(sc, 0, Config{Eps1: 0.4})
	for _, p := range ps {
		if sc.Obstacles[0].Shape.ContainsInterior(p) {
			t.Fatalf("candidate %v inside obstacle", p)
		}
	}
}

func TestCandidatePositionsIncludeRingIntersections(t *testing.T) {
	sc := twoDeviceScenario()
	ps := CandidatePositions(sc, 0, Config{Eps1: 0.4})
	// The two devices are 10 apart; their DMax=8 circles intersect at
	// x = 20, y = 20 ± sqrt(64-25). Both intersection points face both
	// devices, so at least one should appear among candidates.
	want1 := geom.V(20, 20+math.Sqrt(64-25))
	want2 := geom.V(20, 20-math.Sqrt(64-25))
	found := false
	for _, p := range ps {
		if p.Dist(want1) < 1e-6 || p.Dist(want2) < 1e-6 {
			found = true
		}
	}
	if !found {
		t.Error("outer ring intersection points missing from candidates")
	}
}

func TestFinerEpsMoreCandidates(t *testing.T) {
	sc := twoDeviceScenario()
	coarse := CandidatePositions(sc, 0, Config{Eps1: 0.8})
	fine := CandidatePositions(sc, 0, Config{Eps1: 0.05})
	if len(fine) <= len(coarse) {
		t.Errorf("finer eps1 should yield more candidates: %d vs %d", len(fine), len(coarse))
	}
}

func TestDefaultEps1(t *testing.T) {
	got := DefaultEps1()
	want := 0.3 / 0.7
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("DefaultEps1 = %v, want %v", got, want)
	}
}

// TestFilterUsefulDropsClampedRingPoint pins a position only FilterUseful
// rejects, so the filter cannot go. CircleSegmentIntersections clamps a
// parameter up to 1e-9 past a segment end onto the end point, so the d_max
// ring of the device at (20, 20) meets the obstacle edges ending at the
// vertex (28+5e-9, 20) at that vertex: 8+5e-9 from the device, beyond the
// d_max + geom.Eps range gate. The position is feasible (obstacle
// boundaries are placeable), so generation keeps it and FilterUseful must
// drop it, with and without the visibility index.
func TestFilterUsefulDropsClampedRingPoint(t *testing.T) {
	v := geom.V(28+5e-9, 20)
	base := &model.Scenario{
		Region:       model.Region{Min: geom.V(0, 0), Max: geom.V(40, 40)},
		ChargerTypes: []model.ChargerType{{Name: "c", Alpha: math.Pi / 2, DMin: 2, DMax: 8, Count: 1}},
		DeviceTypes:  []model.DeviceType{{Name: "d", Alpha: 2 * math.Pi, PTh: 0.05}},
		Power:        [][]model.PowerParams{{{A: 100, B: 40}}},
		Devices:      []model.Device{{Pos: geom.V(20, 20)}},
		Obstacles: []model.Obstacle{{Shape: geom.Polygon{Vertices: []geom.Vec{
			v, geom.V(36, 20), geom.V(36, 21)}}}},
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := v.Dist(base.Devices[0].Pos); d <= base.ChargerTypes[0].DMax+geom.Eps {
		t.Fatalf("vertex at %v from the device is within range", d)
	}
	has := func(pts []geom.Vec, p geom.Vec) bool {
		return slices.ContainsFunc(pts, func(q geom.Vec) bool {
			return math.Float64bits(q.X) == math.Float64bits(p.X) && math.Float64bits(q.Y) == math.Float64bits(p.Y)
		})
	}
	for _, brute := range []bool{false, true} {
		sc := base.Clone()
		if brute {
			sc.AttachVisibilityIndex(model.BruteForce(sc.Obstacles))
		}
		sc = visindex.Ensure(sc)
		cfg := Config{Eps1: DefaultEps1()}
		g := NewGenerator(sc, 0, cfg)
		if (g.ix == nil) != brute {
			t.Fatalf("brute=%v: generator has the spatial index = %v", brute, g.ix != nil)
		}
		pts := g.Positions(nil)
		if !has(pts, v) {
			t.Fatalf("brute=%v: generation no longer emits the clamped vertex %v", brute, v)
		}
		kept := g.FilterUseful(slices.Clone(pts))
		if has(kept, v) {
			t.Fatalf("brute=%v: FilterUseful kept %v, beyond d_max + Eps", brute, v)
		}
		if len(kept) != len(pts)-1 {
			t.Fatalf("brute=%v: FilterUseful kept %d of %d positions, want all but the vertex", brute, len(kept), len(pts))
		}
		if has(CandidatePositions(sc, 0, cfg), v) {
			t.Fatalf("brute=%v: CandidatePositions returned %v", brute, v)
		}
	}
}
