package submodular

import (
	"math"
	"math/rand"
	"testing"
)

// simpleInstance: 3 devices with Pth=1, elements across 2 parts.
func simpleInstance() *Instance {
	phi := UtilityPhi(1.0)
	return &Instance{
		Phi:    []Scalar{phi, phi, phi},
		Weight: []float64{1, 1, 1},
		Elements: []Element{
			{Part: 0, Covers: []Entry{{0, 1.0}}},           // e0: saturates dev 0
			{Part: 0, Covers: []Entry{{0, 0.5}, {1, 0.5}}}, // e1
			{Part: 0, Covers: []Entry{{2, 0.3}}},           // e2
			{Part: 1, Covers: []Entry{{1, 1.0}, {2, 1.0}}}, // e3: big
			{Part: 1, Covers: []Entry{{2, 0.1}}},           // e4
		},
		Budget: []int{1, 1},
	}
}

func TestGreedyPerTypeSimple(t *testing.T) {
	res := GreedyPerType(simpleInstance())
	// Part 0 first: best is e0 (gain 1.0) or e1 (gain 1.0)? e0 gain = 1,
	// e1 gain = 0.5+0.5 = 1. Tie goes to the first maximal (strict >), so e0.
	// Then part 1: e3 adds 1+1 = 2 (devices 1, 2 unsaturated).
	if res.Value != 3.0 {
		t.Errorf("value = %v, want 3", res.Value)
	}
	if len(res.Selected) != 2 {
		t.Errorf("selected = %v", res.Selected)
	}
}

func TestGreedyRespectsBudgets(t *testing.T) {
	inst := simpleInstance()
	inst.Budget = []int{2, 0}
	for _, f := range []func(*Instance) Result{GreedyPerType, GreedyGlobal, GreedyLazy} {
		res := f(inst)
		for _, e := range res.Selected {
			if inst.Elements[e].Part == 1 {
				t.Fatalf("selected element %d from zero-budget part", e)
			}
		}
		count := 0
		for _, e := range res.Selected {
			if inst.Elements[e].Part == 0 {
				count++
			}
		}
		if count > 2 {
			t.Fatalf("part 0 over budget: %d", count)
		}
	}
}

func TestGreedyVariantsAgreeOnValue(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(rng, 10, 40, 3)
		g := GreedyGlobal(inst)
		l := GreedyLazy(inst)
		if math.Abs(g.Value-l.Value) > 1e-9 {
			t.Fatalf("trial %d: global %v vs lazy %v", trial, g.Value, l.Value)
		}
		// Evaluate must reproduce the reported value.
		if math.Abs(Evaluate(inst, g.Selected)-g.Value) > 1e-9 {
			t.Fatalf("trial %d: Evaluate mismatch", trial)
		}
	}
}

// randomInstance builds a random utility instance with nd devices, ne
// elements, np parts.
func randomInstance(rng *rand.Rand, nd, ne, np int) *Instance {
	inst := &Instance{Budget: make([]int, np)}
	for q := range inst.Budget {
		inst.Budget[q] = 1 + rng.Intn(3)
	}
	for j := 0; j < nd; j++ {
		inst.Phi = append(inst.Phi, UtilityPhi(0.5+rng.Float64()))
		inst.Weight = append(inst.Weight, 1.0/float64(nd))
	}
	for e := 0; e < ne; e++ {
		el := Element{Part: rng.Intn(np)}
		k := 1 + rng.Intn(4)
		seen := map[int]bool{}
		for i := 0; i < k; i++ {
			d := rng.Intn(nd)
			if seen[d] {
				continue
			}
			seen[d] = true
			el.Covers = append(el.Covers, Entry{Device: d, Power: rng.Float64() * 0.8})
		}
		inst.Elements = append(inst.Elements, el)
	}
	return inst
}

// Property: greedy value is within factor 1/2 of optimum on instances small
// enough for brute force (the partition-matroid greedy guarantee).
func TestGreedyHalfApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(rng, 6, 10, 2)
		inst.Budget = []int{1 + rng.Intn(2), 1 + rng.Intn(2)}
		opt := bruteForce(inst)
		for name, f := range map[string]func(*Instance) Result{
			"per-type": GreedyPerType, "global": GreedyGlobal, "lazy": GreedyLazy,
		} {
			res := f(inst)
			if res.Value < opt/2-1e-9 {
				t.Fatalf("trial %d: %s value %v below half of optimum %v",
					trial, name, res.Value, opt)
			}
			if res.Value > opt+1e-9 {
				t.Fatalf("trial %d: %s value %v exceeds optimum %v",
					trial, name, res.Value, opt)
			}
		}
	}
}

// bruteForce enumerates all feasible selections.
func bruteForce(inst *Instance) float64 {
	n := len(inst.Elements)
	best := 0.0
	var rec func(i int, sel []int, used []int)
	rec = func(i int, sel []int, used []int) {
		if v := Evaluate(inst, sel); v > best {
			best = v
		}
		if i == n {
			return
		}
		// skip
		rec(i+1, sel, used)
		// take if feasible
		p := inst.Elements[i].Part
		if used[p] < inst.Budget[p] {
			used[p]++
			rec(i+1, append(sel, i), used)
			used[p]--
		}
	}
	rec(0, nil, make([]int, len(inst.Budget)))
	return best
}

// Property: objective is monotone — adding elements never decreases value.
func TestMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	inst := randomInstance(rng, 8, 30, 2)
	var sel []int
	prev := 0.0
	perm := rng.Perm(len(inst.Elements))
	for _, e := range perm {
		sel = append(sel, e)
		v := Evaluate(inst, sel)
		if v < prev-1e-12 {
			t.Fatalf("value decreased from %v to %v", prev, v)
		}
		prev = v
	}
}

// Property: submodularity — marginal gain of a fixed element shrinks as the
// base set grows along a chain.
func TestSubmodularityAlongChain(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	inst := randomInstance(rng, 8, 30, 2)
	probe := 0
	st := newState(inst)
	prevGain := st.gain(probe)
	for e := 1; e < len(inst.Elements); e++ {
		st.add(e)
		g := st.gain(probe)
		if g > prevGain+1e-12 {
			t.Fatalf("marginal gain grew from %v to %v after adding %d", prevGain, g, e)
		}
		prevGain = g
	}
}

func TestBudgetedGreedy(t *testing.T) {
	inst := simpleInstance()
	cost := []float64{1, 1, 1, 5, 1}
	// Budget 2: cannot afford e3 plus anything; ratio greedy picks cheap
	// high-gain elements.
	res := BudgetedGreedy(inst, cost, 2)
	spent := 0.0
	for _, e := range res.Selected {
		spent += cost[e]
	}
	if spent > 2+1e-12 {
		t.Errorf("budget exceeded: %v", spent)
	}
	if res.Value <= 0 {
		t.Error("budgeted greedy found nothing")
	}
	// Budget 5: best single is e3 with value 2; ratio greedy may do better
	// or equal; result must be ≥ 2.
	res5 := BudgetedGreedy(inst, cost, 5)
	if res5.Value < 2 {
		t.Errorf("budget-5 value = %v, want ≥ 2", res5.Value)
	}
}

func TestScalars(t *testing.T) {
	u := UtilityPhi(0.05)
	if u(0.025) != 0.5 || u(1) != 1 || u(0) != 0 || u(-1) != 0 {
		t.Error("UtilityPhi broken")
	}
	lu := LogUtilityPhi(0.05)
	if math.Abs(lu(0.05)-math.Log(2)) > 1e-12 {
		t.Errorf("LogUtilityPhi(Pth) = %v", lu(0.05))
	}
	if lu(0) != 0 {
		t.Error("LogUtilityPhi(0) != 0")
	}
}

func TestEmptyInstance(t *testing.T) {
	inst := &Instance{Budget: []int{2}}
	for _, f := range []func(*Instance) Result{GreedyPerType, GreedyGlobal, GreedyLazy} {
		res := f(inst)
		if len(res.Selected) != 0 || res.Value != 0 {
			t.Errorf("empty instance result = %+v", res)
		}
	}
}

func TestLazyGreedyDeferredRequeue(t *testing.T) {
	// Regression: an element of part 1 popped while part 1 is saturated
	// must return to the heap if... part 1 can never regain budget, so it
	// should simply be dropped without losing part-0 elements behind it.
	phi := UtilityPhi(1.0)
	inst := &Instance{
		Phi:    []Scalar{phi, phi},
		Weight: []float64{1, 1},
		Elements: []Element{
			{Part: 1, Covers: []Entry{{0, 1.0}}},
			{Part: 1, Covers: []Entry{{0, 0.9}}},
			{Part: 0, Covers: []Entry{{1, 0.5}}},
		},
		Budget: []int{1, 1},
	}
	res := GreedyLazy(inst)
	if math.Abs(res.Value-1.5) > 1e-12 {
		t.Errorf("value = %v, want 1.5", res.Value)
	}
	if len(res.Selected) != 2 {
		t.Errorf("selected = %v", res.Selected)
	}
}

func TestAllowRepeatSpendsFullBudget(t *testing.T) {
	// One element, budget 3: with repeats allowed the greedy stacks three
	// copies; each adds 0.4 toward a threshold of 1.0 until saturation.
	phi := UtilityPhi(1.0)
	inst := &Instance{
		Phi:    []Scalar{phi},
		Weight: []float64{1},
		Elements: []Element{
			{Part: 0, Covers: []Entry{{0, 0.4}}},
		},
		Budget:      []int{3},
		AllowRepeat: true,
	}
	for name, f := range map[string]func(*Instance) Result{
		"per-type": GreedyPerType, "global": GreedyGlobal, "lazy": GreedyLazy,
	} {
		res := f(inst)
		if len(res.Selected) != 3 {
			t.Errorf("%s: selected %d copies, want 3", name, len(res.Selected))
		}
		if math.Abs(res.Value-1.0) > 1e-12 {
			t.Errorf("%s: value = %v, want 1 (saturated)", name, res.Value)
		}
	}
	// Without repeats only one copy is placed.
	inst.AllowRepeat = false
	res := GreedyLazy(inst)
	if len(res.Selected) != 1 || math.Abs(res.Value-0.4) > 1e-12 {
		t.Errorf("no-repeat: %v copies, value %v", len(res.Selected), res.Value)
	}
}

func TestAllowRepeatStopsAtSaturation(t *testing.T) {
	// Repeats must stop once the marginal gain hits zero even with budget
	// left (element saturates the only device in one shot).
	phi := UtilityPhi(1.0)
	inst := &Instance{
		Phi:         []Scalar{phi},
		Weight:      []float64{1},
		Elements:    []Element{{Part: 0, Covers: []Entry{{0, 2.0}}}},
		Budget:      []int{5},
		AllowRepeat: true,
	}
	for name, f := range map[string]func(*Instance) Result{
		"per-type": GreedyPerType, "global": GreedyGlobal, "lazy": GreedyLazy,
	} {
		res := f(inst)
		if len(res.Selected) != 1 {
			t.Errorf("%s: selected %d, want 1 (no gain after saturation)", name, len(res.Selected))
		}
	}
}

// Property: Evaluate is invariant under permutation of the selection.
func TestQuickEvaluateOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	inst := randomInstance(rng, 10, 30, 2)
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(10)
		sel := make([]int, k)
		for i := range sel {
			sel[i] = rng.Intn(len(inst.Elements))
		}
		v1 := Evaluate(inst, sel)
		perm := rng.Perm(k)
		shuffled := make([]int, k)
		for i, pi := range perm {
			shuffled[i] = sel[pi]
		}
		v2 := Evaluate(inst, shuffled)
		if math.Abs(v1-v2) > 1e-9 {
			t.Fatalf("order changed value: %v vs %v", v1, v2)
		}
	}
}

// TestParallelArgmaxLargeInstance checks the greedy variants on a ground set
// of several hundred elements, the size at which the argmax scan once fanned
// out over goroutines, and their exact-tie break toward the lowest index.
func TestParallelArgmaxLargeInstance(t *testing.T) {
	// A large ground set, where the selection spans many candidates per
	// part.
	inst := randomInstance(rand.New(rand.NewSource(123)), 20, 600, 3)
	inst.Budget = []int{3, 3, 3}
	g, l := GreedyGlobal(inst), GreedyLazy(inst)
	if math.Abs(g.Value-l.Value) > 1e-9 || len(g.Selected) != len(l.Selected) {
		t.Fatalf("large instance: global %v (%d picks) vs lazy %v (%d picks)",
			g.Value, len(g.Selected), l.Value, len(l.Selected))
	}
	// Duplicate elements create exact ties, which every variant must break
	// toward the lowest element index.
	dup := &Instance{Phi: inst.Phi, Weight: inst.Weight, Budget: []int{2}}
	base := Element{Part: 0, Covers: []Entry{{0, 0.3}}}
	for i := 0; i < 400; i++ {
		dup.Elements = append(dup.Elements, base)
	}
	for _, f := range []func(*Instance) Result{GreedyGlobal, GreedyLazy, GreedyPerType} {
		if res := f(dup); len(res.Selected) == 0 || res.Selected[0] != 0 {
			t.Fatalf("exact tie resolved to %v, want element 0 first", res.Selected)
		}
	}
}
