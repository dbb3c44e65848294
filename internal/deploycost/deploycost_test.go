package deploycost

import (
	"math"
	"math/rand"
	"testing"

	"hipo/internal/core"
	"hipo/internal/geom"
	"hipo/internal/model"
)

func TestTourLength(t *testing.T) {
	depot := geom.V(0, 0)
	pts := []geom.Vec{geom.V(3, 0), geom.V(3, 4)}
	// 0→(3,0): 3; →(3,4): 4; →0: 5. Total 12.
	if got := TourLength(depot, pts); math.Abs(got-12) > 1e-12 {
		t.Errorf("length = %v, want 12", got)
	}
	if TourLength(depot, nil) != 0 {
		t.Error("empty tour should be free")
	}
}

func TestNearestNeighborTour(t *testing.T) {
	depot := geom.V(0, 0)
	pts := []geom.Vec{geom.V(10, 0), geom.V(1, 0), geom.V(5, 0)}
	order := NearestNeighborTour(depot, pts)
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTwoOptFixesCrossing(t *testing.T) {
	depot := geom.V(0, 0)
	// Square corners visited in a crossing order.
	pts := []geom.Vec{geom.V(0, 10), geom.V(10, 0), geom.V(10, 10)}
	bad := []int{2, 1, 0} // depot→(10,10)→(10,0)→(0,10)→depot
	badSeq := []geom.Vec{pts[2], pts[1], pts[0]}
	badLen := TourLength(depot, badSeq)
	improved := TwoOpt(depot, pts, append([]int(nil), bad...), 16)
	seq := make([]geom.Vec, len(improved))
	for i, idx := range improved {
		seq[i] = pts[idx]
	}
	if TourLength(depot, seq) > badLen+1e-12 {
		t.Errorf("2-opt worsened the tour: %v > %v", TourLength(depot, seq), badLen)
	}
}

// Property: Tour (NN + 2-opt) is never worse than the raw NN tour and at
// least matches the optimal tour on tiny instances.
func TestTourQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		depot := geom.V(rng.Float64()*10, rng.Float64()*10)
		n := 3 + rng.Intn(4)
		pts := make([]geom.Vec, n)
		for i := range pts {
			pts[i] = geom.V(rng.Float64()*20, rng.Float64()*20)
		}
		_, length := Tour(depot, pts)
		opt := bruteTour(depot, pts)
		if length < opt-1e-9 {
			t.Fatalf("tour %v shorter than optimal %v?!", length, opt)
		}
		if length > opt*1.5+1e-9 {
			t.Fatalf("tour %v much worse than optimal %v", length, opt)
		}
	}
}

func bruteTour(depot geom.Vec, pts []geom.Vec) float64 {
	n := len(pts)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			seq := make([]geom.Vec, n)
			for i, idx := range perm {
				seq[i] = pts[idx]
			}
			if l := TourLength(depot, seq); l < best {
				best = l
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

func costScenario() *model.Scenario {
	return &model.Scenario{
		Region: model.Region{Min: geom.V(0, 0), Max: geom.V(30, 30)},
		ChargerTypes: []model.ChargerType{
			{Name: "c1", Alpha: math.Pi / 2, DMin: 2, DMax: 8, Count: 3},
		},
		DeviceTypes: []model.DeviceType{
			{Name: "d1", Alpha: math.Pi, PTh: 0.05},
		},
		Power: [][]model.PowerParams{{{A: 100, B: 40}}},
		Devices: []model.Device{
			{Pos: geom.V(10, 10), Orient: 0, Type: 0},
			{Pos: geom.V(20, 20), Orient: math.Pi, Type: 0},
			{Pos: geom.V(10, 20), Orient: -math.Pi / 2, Type: 0},
		},
	}
}

func TestStrategyCost(t *testing.T) {
	cm := LinearCostModel(geom.V(0, 0), 1, 2, 3, []float64{5})
	s := model.Strategy{Pos: geom.V(3, 4), Orient: math.Pi, Type: 0}
	want := 5.0 + 2*math.Pi + 3*5
	if got := cm.StrategyCost(s); math.Abs(got-want) > 1e-12 {
		t.Errorf("cost = %v, want %v", got, want)
	}
	// Nil curves cost nothing.
	empty := CostModel{Depot: geom.V(0, 0)}
	if empty.StrategyCost(s) != 0 {
		t.Error("nil cost curves should be free")
	}
}

func TestSolveBudgetedRespectsBudget(t *testing.T) {
	sc := costScenario()
	cm := LinearCostModel(geom.V(0, 0), 1, 0.5, 0, nil)
	budgets := []float64{10, 30, 100}
	prev := -1.0
	for _, b := range budgets {
		res, err := SolveBudgeted(sc, cm, b, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost > b+1e-9 {
			t.Fatalf("budget %v exceeded: %v", b, res.Cost)
		}
		if res.Utility < prev-1e-9 {
			t.Fatalf("utility decreased with larger budget: %v < %v", res.Utility, prev)
		}
		prev = res.Utility
	}
}

func TestSolveBudgetedZeroBudget(t *testing.T) {
	sc := costScenario()
	cm := LinearCostModel(geom.V(0, 0), 1, 1, 1, []float64{1})
	res, err := SolveBudgeted(sc, cm, 0, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placed) != 0 || res.Utility != 0 {
		t.Errorf("zero budget placed %d with utility %v", len(res.Placed), res.Utility)
	}
}

func TestTourCostAndPlacementCost(t *testing.T) {
	cm := LinearCostModel(geom.V(0, 0), 1, 0, 0, nil)
	placed := []model.Strategy{
		{Pos: geom.V(3, 0), Type: 0},
		{Pos: geom.V(3, 4), Type: 0},
	}
	// Tour: 3+4+5 = 12; per-charger radial sum: 3+5 = 8.
	if got := cm.TourCost(placed); math.Abs(got-12) > 1e-9 {
		t.Errorf("tour cost = %v, want 12", got)
	}
	if got := cm.PlacementCost(placed); math.Abs(got-8) > 1e-9 {
		t.Errorf("placement cost = %v, want 8", got)
	}
}

func TestCheapestFeasible(t *testing.T) {
	sc := costScenario()
	cm := LinearCostModel(geom.V(10, 10), 1, 0, 0, nil)
	cands, err := core.ExtractCandidates(sc, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cheapest := CheapestFeasible(cands, cm)
	if math.IsInf(cheapest, 1) {
		t.Fatal("no candidates found")
	}
	// The cheapest candidate is at least DMin away from the nearest device
	// circle... it just must be a nonnegative finite number.
	if cheapest < 0 {
		t.Errorf("cheapest = %v", cheapest)
	}
}
