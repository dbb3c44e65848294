package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/power"
	"hipo/internal/submodular"
)

// smallScenario: two charger types, four devices, one obstacle.
func smallScenario() *model.Scenario {
	sc := &model.Scenario{
		Region: model.Region{Min: geom.V(0, 0), Max: geom.V(40, 40)},
		ChargerTypes: []model.ChargerType{
			{Name: "c1", Alpha: math.Pi / 3, DMin: 3, DMax: 8, Count: 1},
			{Name: "c2", Alpha: math.Pi / 2, DMin: 2, DMax: 6, Count: 2},
		},
		DeviceTypes: []model.DeviceType{
			{Name: "d1", Alpha: math.Pi, PTh: 0.05},
			{Name: "d2", Alpha: 3 * math.Pi / 4, PTh: 0.05},
		},
		Power: [][]model.PowerParams{
			{{A: 100, B: 40}, {A: 130, B: 52}},
			{{A: 110, B: 44}, {A: 140, B: 56}},
		},
		Devices: []model.Device{
			{Pos: geom.V(10, 10), Orient: 0, Type: 0},
			{Pos: geom.V(14, 12), Orient: math.Pi, Type: 1},
			{Pos: geom.V(28, 28), Orient: math.Pi / 2, Type: 0},
			{Pos: geom.V(30, 24), Orient: math.Pi, Type: 1},
		},
		Obstacles: []model.Obstacle{
			{Shape: geom.Rect(18, 16, 22, 20)},
		},
	}
	return sc
}

func TestSolveBasic(t *testing.T) {
	sc := smallScenario()
	sol, err := Solve(sc, DefaultOptions())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if len(sol.Placed) == 0 {
		t.Fatal("no chargers placed")
	}
	if len(sol.Placed) > sc.TotalChargers() {
		t.Fatalf("placed %d > budget %d", len(sol.Placed), sc.TotalChargers())
	}
	if sol.Utility <= 0 || sol.Utility > 1+1e-9 {
		t.Fatalf("utility = %v out of (0,1]", sol.Utility)
	}
	// Budgets per type respected.
	counts := map[int]int{}
	for _, s := range sol.Placed {
		counts[s.Type]++
		if !sc.FeasiblePosition(s.Pos) {
			t.Fatalf("infeasible placement %v", s.Pos)
		}
	}
	for q, ct := range sc.ChargerTypes {
		if counts[q] > ct.Count {
			t.Fatalf("type %d over budget: %d > %d", q, counts[q], ct.Count)
		}
	}
	// The exact utility must match recomputation.
	if got := power.TotalUtility(sc, sol.Placed); math.Abs(got-sol.Utility) > 1e-12 {
		t.Fatalf("utility mismatch: %v vs %v", got, sol.Utility)
	}
}

func TestSolveInvalidScenario(t *testing.T) {
	sc := smallScenario()
	sc.ChargerTypes = nil
	if _, err := Solve(sc, DefaultOptions()); err == nil {
		t.Fatal("expected error for invalid scenario")
	}
}

func TestVariantsConsistent(t *testing.T) {
	sc := smallScenario()
	cands, err := ExtractCandidates(sc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	value := func(v GreedyVariant) float64 {
		opt := DefaultOptions()
		opt.Variant = v
		sol, err := SelectFromCandidates(sc, cands, opt)
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		return sol.ApproxValue
	}
	lazy, perType := value(GreedyLazy), value(GreedyPerType)
	// The plain global greedy is the reference the lazy one must match.
	sol, err := SelectWith(sc, cands, DefaultOptions(), func(inst *submodular.Instance, _ []pdcs.Candidate) submodular.Result {
		return submodular.GreedyGlobal(inst)
	})
	if err != nil {
		t.Fatalf("global greedy: %v", err)
	}
	global := sol.ApproxValue
	// Lazy and global must agree exactly; per-type may differ but not by
	// more than a factor 2 either way (both are 1/2-approximations of the
	// same optimum).
	if math.Abs(lazy-global) > 1e-9 {
		t.Errorf("lazy %v != global %v", lazy, global)
	}
	if perType < global/2-1e-9 || global < perType/2-1e-9 {
		t.Errorf("per-type %v vs global %v inconsistent", perType, global)
	}
}

func TestObstacleReducesUtility(t *testing.T) {
	sc := smallScenario()
	sc.Devices = []model.Device{
		{Pos: geom.V(10, 10), Orient: 0, Type: 0},
		{Pos: geom.V(14, 10), Orient: math.Pi, Type: 0},
	}
	clear := sc.Clone()
	clear.Obstacles = nil
	solClear, err := Solve(clear, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Wall tightly boxing device 0 from its receiving side.
	walled := sc.Clone()
	walled.Obstacles = []model.Obstacle{
		{Shape: geom.Rect(10.5, 8, 11.5, 12)},
	}
	solWalled, err := Solve(walled, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if solWalled.Utility > solClear.Utility+1e-9 {
		t.Errorf("walled utility %v exceeds clear %v", solWalled.Utility, solClear.Utility)
	}
}

func TestMoreChargersMoreUtility(t *testing.T) {
	sc := smallScenario()
	few := sc.Clone()
	few.ChargerTypes[0].Count = 1
	few.ChargerTypes[1].Count = 0
	many := sc.Clone()
	many.ChargerTypes[0].Count = 3
	many.ChargerTypes[1].Count = 3
	solFew, err := Solve(few, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	solMany, err := Solve(many, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if solMany.ApproxValue < solFew.ApproxValue-1e-9 {
		t.Errorf("more chargers decreased value: %v < %v", solMany.ApproxValue, solFew.ApproxValue)
	}
}

func TestTheoreticalRatio(t *testing.T) {
	opt := Options{Eps: 0.15}
	if got := opt.TheoreticalRatio(); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("ratio = %v, want 0.35", got)
	}
	bad := Options{Eps: 0.9}
	if got := bad.TheoreticalRatio(); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("invalid eps should fall back to default: %v", got)
	}
}

func TestComplexityMonotone(t *testing.T) {
	sc := smallScenario()
	c1 := Complexity(sc, 0.15)
	sc2 := sc.Clone()
	sc2.Devices = append(sc2.Devices, sc2.Devices...)
	c2 := Complexity(sc2, 0.15)
	if c2 <= c1 {
		t.Errorf("complexity should grow with devices: %v vs %v", c1, c2)
	}
	if c3 := Complexity(sc, 0.05); c3 <= c1 {
		t.Errorf("complexity should grow as eps shrinks")
	}
	noObs := sc.Clone()
	noObs.Obstacles = nil
	if Complexity(noObs, 0.15) <= 0 {
		t.Error("obstacle-free complexity must stay positive")
	}
}

func TestSolveNoFeasibleCandidates(t *testing.T) {
	sc := smallScenario()
	// Devices with tiny receiving angle facing away from everything the
	// charger can reach — still solvable, possibly with zero placements.
	for i := range sc.Devices {
		sc.Devices[i].Orient = 0
	}
	sc.DeviceTypes[0].Alpha = 0.01
	sc.DeviceTypes[1].Alpha = 0.01
	sol, err := Solve(sc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_ = sol // any placement count is fine; must simply not crash
}

func TestExactUtilityAtLeastApprox(t *testing.T) {
	// Lemma 4.2/4.3: approximated power underestimates exact power, so the
	// exact utility of the chosen placement is ≥ the approximate objective.
	sc := smallScenario()
	sol, err := Solve(sc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Utility < sol.ApproxValue-1e-9 {
		t.Errorf("exact utility %v below approximate value %v", sol.Utility, sol.ApproxValue)
	}
}

func TestSolveContextCancellation(t *testing.T) {
	sc := smallScenario()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := DefaultOptions()
	opt.Ctx = ctx
	if _, err := Solve(sc, opt); err == nil {
		t.Error("canceled context should abort Solve")
	}
	// ExtractCandidates reports the cancellation instead of returning the
	// types extracted so far.
	if cands, err := ExtractCandidates(sc, opt); !errors.Is(err, context.Canceled) || cands != nil {
		t.Errorf("canceled ExtractCandidates = %d types, %v; want no types and context.Canceled", len(cands), err)
	}
	// SelectFromCandidates also honors cancellation.
	cands, err := ExtractCandidates(sc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SelectFromCandidates(sc, cands, opt); err == nil {
		t.Error("canceled context should abort selection")
	}
	// Nil context never cancels.
	live := DefaultOptions()
	if _, err := Solve(sc, live); err != nil {
		t.Fatalf("nil-context solve failed: %v", err)
	}
}
