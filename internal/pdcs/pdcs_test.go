package pdcs

import (
	"math"
	"math/rand"
	"testing"

	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/power"
)

func ringScenario() *model.Scenario {
	// Six devices on a circle of radius 5 around the origin-offset point
	// (20,20), all facing the center, mirroring the toy example of Figure 5.
	sc := &model.Scenario{
		Region: model.Region{Min: geom.V(0, 0), Max: geom.V(40, 40)},
		ChargerTypes: []model.ChargerType{
			{Name: "c1", Alpha: math.Pi / 2, DMin: 1, DMax: 8, Count: 2},
		},
		DeviceTypes: []model.DeviceType{
			{Name: "d1", Alpha: 2 * math.Pi, PTh: 0.05},
		},
		Power: [][]model.PowerParams{{{A: 100, B: 40}}},
	}
	center := geom.V(20, 20)
	for i := 0; i < 6; i++ {
		theta := 2 * math.Pi * float64(i) / 6
		pos := center.Add(geom.FromAngle(theta).Scale(5))
		sc.Devices = append(sc.Devices, model.Device{
			Pos: pos, Orient: geom.NormAngle(theta + math.Pi), Type: 0,
		})
	}
	return sc
}

// eligibleAt runs the production eligibility scan at a single point.
func eligibleAt(sc *model.Scenario, q int, p geom.Vec, eps1 float64) []eligible {
	cfg := Config{Eps1: eps1}
	return newEligibleCache(cfg.ensureVisibility(sc), q, cfg).at(p, nil)
}

// sweepPoint runs Algorithm 1 at a single point through the sweep driver.
func sweepPoint(sc *model.Scenario, q int, p geom.Vec, eps1 float64) []Candidate {
	return ExtractAt(sc, q, []geom.Vec{p}, Config{Eps1: eps1, SkipDominanceFilter: true}, nil, nil)
}

func TestEligibleAt(t *testing.T) {
	sc := ringScenario()
	el := eligibleAt(sc, 0, geom.V(20, 20), 0.4)
	if len(el) != 6 {
		t.Fatalf("eligible = %d, want 6", len(el))
	}
	for _, e := range el {
		if e.pw <= 0 {
			t.Errorf("device %d power %v", e.device, e.pw)
		}
	}
	// Out of range position.
	if el := eligibleAt(sc, 0, geom.V(0, 0), 0.4); len(el) != 0 {
		t.Errorf("far position eligible = %d", len(el))
	}
}

func TestEligibleRespectsReceivingSector(t *testing.T) {
	sc := ringScenario()
	sc.DeviceTypes[0].Alpha = math.Pi / 2 // narrow receiving
	// Devices face the center, so the center is eligible for all.
	el := eligibleAt(sc, 0, geom.V(20, 20), 0.4)
	if len(el) != 6 {
		t.Fatalf("center eligible = %d, want 6", len(el))
	}
	// A point behind device 0 (outside its receiving sector) must exclude
	// device 0. Device 0 sits at (25,20) facing π (towards −x); a charger at
	// (29,20) is behind it.
	el = eligibleAt(sc, 0, geom.V(29, 20), 0.4)
	for _, e := range el {
		if e.device == 0 {
			t.Error("device 0 should not be eligible from behind")
		}
	}
}

func TestEligibleObstacle(t *testing.T) {
	sc := ringScenario()
	// Wall between center and device 0 at (25,20).
	sc.Obstacles = []model.Obstacle{{Shape: geom.Rect(22, 18, 23, 22)}}
	el := eligibleAt(sc, 0, geom.V(20, 20), 0.4)
	for _, e := range el {
		if e.device == 0 {
			t.Error("blocked device 0 should not be eligible")
		}
	}
	if len(el) != 5 {
		t.Errorf("eligible = %d, want 5", len(el))
	}
}

// TestEligibleAtAllocationFree pins the per-position eligibility scan to
// zero heap allocations once the chunk's buffer is reused, on both the
// device-grid path (no obstacles) and the viewpoint-tile path (obstacles,
// batched line of sight, warm tile memos).
func TestEligibleAtAllocationFree(t *testing.T) {
	walled := ringScenario()
	walled.Obstacles = []model.Obstacle{{Shape: geom.Rect(22, 18, 23, 22)}, {Shape: geom.Rect(17, 19, 18, 21)}}
	probes := []geom.Vec{geom.V(20, 20), geom.V(19.5, 21), geom.V(21, 19), geom.V(0, 0)}
	for _, sc := range []*model.Scenario{ringScenario(), walled} {
		cfg := Config{Eps1: 0.4}
		c := newEligibleCache(cfg.ensureVisibility(sc), 0, cfg)
		var buf []eligible
		for _, p := range probes {
			buf = c.at(p, buf) // warm the buffer and the tile memos
		}
		if n := testing.AllocsPerRun(50, func() {
			for _, p := range probes {
				buf = c.at(p, buf)
			}
		}); n != 0 {
			t.Errorf("%d obstacles: eligibleCache.at allocates %v times per run", len(sc.Obstacles), n)
		}
		if len(sc.Obstacles) > 0 && c.vpg == nil {
			t.Fatal("obstacle scenario did not take the viewpoint-tile path")
		}
	}
}

func TestSweepPointMaximality(t *testing.T) {
	sc := ringScenario()
	cands := sweepPoint(sc, 0, geom.V(20, 20), 0.4)
	if len(cands) == 0 {
		t.Fatal("no candidates from sweep")
	}
	// α = π/2 covers exactly a quarter of the circle: from the center, the
	// six devices are 60° apart, so a quarter sector covers at most 2.
	for _, c := range cands {
		if len(c.Covers) == 0 || len(c.Covers) > 2 {
			t.Errorf("cover size = %d, want 1..2", len(c.Covers))
		}
		// Verify each claimed covered device is actually charged under the
		// exact model gates (power > 0 given the chosen orientation).
		for _, dp := range c.Covers {
			if got := power.Exact(sc, c.S, dp.Device); got <= 0 {
				t.Errorf("claimed covered device %d receives no exact power", dp.Device)
			}
		}
	}
	// No candidate's set is a strict subset of another's.
	for i := range cands {
		for j := range cands {
			if i != j && len(cands[i].Covers) < len(cands[j].Covers) &&
				coversSubset(cands[i].Covers, cands[j].Covers) {
				t.Errorf("candidate %d dominated by %d at same point", i, j)
			}
		}
	}
}

func TestSweepPointOmnidirectional(t *testing.T) {
	sc := ringScenario()
	sc.ChargerTypes[0].Alpha = 2 * math.Pi
	cands := sweepPoint(sc, 0, geom.V(20, 20), 0.4)
	if len(cands) != 1 {
		t.Fatalf("omnidirectional candidates = %d, want 1", len(cands))
	}
	if len(cands[0].Covers) != 6 {
		t.Errorf("omnidirectional covers = %d, want 6", len(cands[0].Covers))
	}
}

func TestSweepPointWideAngleCoversAll(t *testing.T) {
	sc := ringScenario()
	sc.ChargerTypes[0].Alpha = 2*math.Pi - 0.05
	cands := sweepPoint(sc, 0, geom.V(20, 20), 0.4)
	best := 0
	for _, c := range cands {
		if len(c.Covers) > best {
			best = len(c.Covers)
		}
	}
	// A near-full sector from the center covers at least 5 of 6 devices.
	if best < 5 {
		t.Errorf("wide-angle best cover = %d", best)
	}
}

func TestFilterDominated(t *testing.T) {
	mk := func(q int, devPowers ...DevPower) Candidate {
		return Candidate{S: model.Strategy{Type: q}, Covers: devPowers}
	}
	cands := []Candidate{
		mk(0, DevPower{0, 1.0}, DevPower{1, 2.0}),
		mk(0, DevPower{0, 1.0}),                   // dominated by #0
		mk(0, DevPower{0, 2.0}),                   // NOT dominated (more power on dev 0)
		mk(0, DevPower{2, 1.0}),                   // disjoint: kept
		mk(1, DevPower{0, 0.5}),                   // different type: kept
		mk(0, DevPower{0, 1.0}, DevPower{1, 2.0}), // duplicate of #0: dropped
	}
	out := FilterDominated(cands, 3)
	if len(out) != 4 {
		t.Fatalf("filtered to %d candidates, want 4", len(out))
	}
	// The dominated singleton and the duplicate must be gone.
	for _, c := range out {
		if c.S.Type == 0 && len(c.Covers) == 1 && c.Covers[0].Device == 0 && c.Covers[0].Power == 1.0 {
			t.Error("dominated candidate survived")
		}
	}
}

func TestExtractEndToEnd(t *testing.T) {
	sc := ringScenario()
	cands := Extract(sc, 0, Config{Eps1: 0.4})
	if len(cands) == 0 {
		t.Fatal("extraction produced no candidates")
	}
	// Every candidate must be placeable and genuinely charge its devices.
	for _, c := range cands {
		if !sc.FeasiblePosition(c.S.Pos) {
			t.Fatalf("infeasible candidate position %v", c.S.Pos)
		}
		for _, dp := range c.Covers {
			if power.Exact(sc, c.S, dp.Device) <= 0 {
				t.Fatalf("candidate at %v claims device %d but delivers nothing",
					c.S.Pos, dp.Device)
			}
		}
	}
	// Dominance filter leaves no strictly dominated same-type pair.
	for i := range cands {
		for j := range cands {
			if i == j {
				continue
			}
			if coversSubset(cands[i].Covers, cands[j].Covers) &&
				powersDominated(cands[i].Covers, cands[j].Covers, true) &&
				!sameCandidate(cands[i], cands[j]) {
				t.Fatalf("candidate %d dominated by %d survived the filter", i, j)
			}
		}
	}
}

func sameCandidate(a, b Candidate) bool {
	if len(a.Covers) != len(b.Covers) {
		return false
	}
	for i := range a.Covers {
		if a.Covers[i] != b.Covers[i] {
			return false
		}
	}
	return true
}

func TestExtractAllTypes(t *testing.T) {
	sc := ringScenario()
	sc.ChargerTypes = append(sc.ChargerTypes, model.ChargerType{
		Name: "c2", Alpha: math.Pi, DMin: 0.5, DMax: 6, Count: 1,
	})
	sc.Power = append(sc.Power, []model.PowerParams{{A: 120, B: 48}})
	all := ExtractAll(sc, Config{Eps1: 0.4})
	if len(all) != 2 {
		t.Fatalf("per-type sets = %d", len(all))
	}
	for q, cands := range all {
		if len(cands) == 0 {
			t.Errorf("type %d has no candidates", q)
		}
		for _, c := range cands {
			if c.S.Type != q {
				t.Errorf("type mismatch: candidate %v in bucket %d", c.S, q)
			}
		}
	}
}

// Property: the best candidate strategy from PDCS extraction is at least as
// good (in covered-device count for a single charger) as any of a large set
// of random strategies. This is the dominance guarantee of Theorem 4.1 in
// observable form.
func TestExtractDominatesRandomStrategies(t *testing.T) {
	sc := ringScenario()
	cands := Extract(sc, 0, Config{Eps1: 0.4})
	bestCand := 0
	for _, c := range cands {
		if len(c.Covers) > bestCand {
			bestCand = len(c.Covers)
		}
	}
	rng := rand.New(rand.NewSource(99))
	bestRandom := 0
	for trial := 0; trial < 5000; trial++ {
		s := model.Strategy{
			Pos:    geom.V(rng.Float64()*40, rng.Float64()*40),
			Orient: rng.Float64() * 2 * math.Pi,
			Type:   0,
		}
		n := 0
		for j := range sc.Devices {
			if power.Exact(sc, s, j) > 0 {
				n++
			}
		}
		if n > bestRandom {
			bestRandom = n
		}
	}
	if bestCand < bestRandom {
		t.Errorf("PDCS best covers %d devices but random found %d", bestCand, bestRandom)
	}
}
