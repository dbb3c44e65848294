package oracle

import (
	"fmt"
	"math"
	"testing"

	"hipo/internal/core"
	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/hipotrace"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/submodular"
	"hipo/internal/visindex"
)

func identity(x float64) float64 { return x }

// TestExhaustiveHandCrafted pins the oracle on a modular instance whose
// optimum is computable by hand: with an identity curve and disjoint
// coverage, f is additive, so the optimum picks the heaviest elements per
// partition.
func TestExhaustiveHandCrafted(t *testing.T) {
	inst := &submodular.Instance{
		Phi:    []submodular.Scalar{identity, identity, identity},
		Weight: []float64{1, 1, 1},
		Budget: []int{1, 2},
		Elements: []submodular.Element{
			{Part: 0, Covers: []submodular.Entry{{Device: 0, Power: 5}}},
			{Part: 0, Covers: []submodular.Entry{{Device: 1, Power: 3}}},
			{Part: 1, Covers: []submodular.Entry{{Device: 1, Power: 2}}},
			{Part: 1, Covers: []submodular.Entry{{Device: 2, Power: 7}}},
		},
	}

	// Without repeats: part 0 takes element 0 (5 > 3); part 1 takes both of
	// its elements. Optimum = 5 + 2 + 7 = 14.
	res, err := Exhaustive(inst, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-14) > 1e-12 {
		t.Fatalf("optimum = %v, want 14", res.Value)
	}
	// Part 0 has C(2,1)=2 selections, part 1 has C(2,2)=1: 2 evaluations.
	if res.Evals != 2 {
		t.Fatalf("evals = %d, want 2", res.Evals)
	}

	// With repeats: part 1 can take element 3 twice. Optimum = 5 + 14 = 19.
	inst.AllowRepeat = true
	res, err = Exhaustive(inst, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-19) > 1e-12 {
		t.Fatalf("optimum with repeats = %v, want 19", res.Value)
	}
	// Part 1 multisets of size 2 over 2 elements: 3. Part 0: 2. Total 6.
	if res.Evals != 6 {
		t.Fatalf("evals = %d, want 6", res.Evals)
	}
}

// TestExhaustiveConcaveRepeats checks the oracle against a concave curve
// where repeating an element has diminishing returns, so the optimum mixes
// elements instead of doubling the best one.
func TestExhaustiveConcaveRepeats(t *testing.T) {
	cap5 := func(x float64) float64 { return math.Min(x, 5) }
	inst := &submodular.Instance{
		Phi:         []submodular.Scalar{cap5, cap5},
		Weight:      []float64{1, 1},
		Budget:      []int{2},
		AllowRepeat: true,
		Elements: []submodular.Element{
			{Part: 0, Covers: []submodular.Entry{{Device: 0, Power: 4}}},
			{Part: 0, Covers: []submodular.Entry{{Device: 1, Power: 3}}},
		},
	}
	// {0,0} → min(8,5) = 5; {0,1} → 4 + 3 = 7; {1,1} → min(6,5) = 5.
	res, err := Exhaustive(inst, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-7) > 1e-12 {
		t.Fatalf("optimum = %v, want 7 (mixing beats repeating)", res.Value)
	}
}

// TestExhaustiveBudgetRefusal: the oracle must refuse, not hang, when the
// enumeration is too large.
func TestExhaustiveBudgetRefusal(t *testing.T) {
	els := make([]submodular.Element, 40)
	for i := range els {
		els[i] = submodular.Element{Part: 0, Covers: []submodular.Entry{{Device: 0, Power: 1}}}
	}
	inst := &submodular.Instance{
		Phi:         []submodular.Scalar{identity},
		Weight:      []float64{1},
		Budget:      []int{5},
		AllowRepeat: true,
		Elements:    els,
	}
	if _, err := Exhaustive(inst, 1000); err == nil {
		t.Fatal("expected an evaluation-budget error")
	}
}

// TestExhaustiveEmptyPartition: a partition with no elements must not
// zero out the enumeration of the others.
func TestExhaustiveEmptyPartition(t *testing.T) {
	inst := &submodular.Instance{
		Phi:    []submodular.Scalar{identity},
		Weight: []float64{1},
		Budget: []int{1, 3},
		Elements: []submodular.Element{
			{Part: 0, Covers: []submodular.Entry{{Device: 0, Power: 2}}},
		},
	}
	res, err := Exhaustive(inst, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-2) > 1e-12 {
		t.Fatalf("optimum = %v, want 2", res.Value)
	}
}

// tinyScenario builds a scenario small enough for exhaustive placement:
// one or two charger types with single-digit budgets, a few devices, one
// obstacle so occlusion stays in the picture.
func tinyScenario(variant int) *model.Scenario {
	sc := &model.Scenario{
		Region: model.Region{Min: geom.V(0, 0), Max: geom.V(12, 12)},
		ChargerTypes: []model.ChargerType{
			{Name: "t1", Alpha: math.Pi / 2, DMin: 0.5, DMax: 6, Count: 2},
		},
		DeviceTypes: []model.DeviceType{{Name: "d", Alpha: 2 * math.Pi, PTh: 0.05}},
		Power:       [][]model.PowerParams{{{A: 100, B: 40}}},
		Obstacles: []model.Obstacle{
			{Shape: geom.Rect(5, 5, 7, 7)},
		},
		Devices: []model.Device{
			{Pos: geom.V(3, 3), Orient: 0},
			{Pos: geom.V(9, 4), Orient: math.Pi},
			{Pos: geom.V(4, 9), Orient: -math.Pi / 2},
		},
	}
	if variant == 1 {
		sc.ChargerTypes = append(sc.ChargerTypes, model.ChargerType{
			Name: "t2", Alpha: math.Pi, DMin: 0.5, DMax: 4, Count: 1,
		})
		sc.Power = [][]model.PowerParams{{{A: 100, B: 40}}, {{A: 60, B: 10}}}
		sc.Devices = sc.Devices[:2]
	}
	return sc
}

// coarseOptions keeps the candidate set small enough for the oracle while
// leaving it rich enough that the greedy-vs-optimum comparison is
// non-trivial (pair constructions stay on).
func coarseOptions() core.Options {
	opt := core.DefaultOptions()
	opt.Eps = 0.3
	return opt
}

// unfilteredCandidates is core.ExtractCandidates with the dominance filter
// skipped, returned with the scenario it ran on (its visibility index
// attached). Dominance filtering collapses the tiny scenarios to a
// near-singleton candidate set, which would make greedy = optimum
// vacuously; keeping dominated candidates preserves a real search space.
func unfilteredCandidates(sc *model.Scenario, opt core.Options) (*model.Scenario, [][]pdcs.Candidate) {
	sc = visindex.Ensure(sc)
	cfg := pdcs.Config{Eps1: opt.Eps1(), Workers: opt.Workers, SkipDominanceFilter: true, Tracer: opt.Tracer}
	return sc, pdcs.ExtractAll(sc, cfg)
}

// TestGreedyMeetsGuarantee asserts the 1/2 bound of Theorem 4.2 against
// the true optimum over the extracted (unfiltered) candidates: the
// greedy's value must be within [opt/2 − 1e-9, opt + 1e-9] on every tiny
// scenario.
func TestGreedyMeetsGuarantee(t *testing.T) {
	for variant := 0; variant <= 1; variant++ {
		sc := tinyScenario(variant)
		if err := sc.Validate(); err != nil {
			t.Fatalf("variant %d: %v", variant, err)
		}
		opt := coarseOptions()
		sc, cands := unfilteredCandidates(sc, opt)
		inst, _ := core.BuildInstance(sc, cands, opt)
		orc, err := Exhaustive(inst, 5_000_000)
		if err != nil {
			t.Fatalf("variant %d: %v", variant, err)
		}
		if orc.Value <= 0 {
			t.Fatalf("variant %d: oracle optimum is %v; scenario too degenerate to test", variant, orc.Value)
		}
		greedy := submodular.GreedyLazy(inst)
		t.Logf("variant %d: %d evals, optimum %v, greedy %v", variant, orc.Evals, orc.Value, greedy.Value)
		if greedy.Value < orc.Value/2-1e-9 {
			t.Fatalf("variant %d: greedy %v violates the 1/2 bound against optimum %v", variant, greedy.Value, orc.Value)
		}
		if greedy.Value > orc.Value+1e-9 {
			t.Fatalf("variant %d: greedy %v exceeds the exhaustive optimum %v — oracle is wrong", variant, greedy.Value, orc.Value)
		}
	}
}

// TestSolveMatchesInstanceGreedy ties the selection's ApproxValue to the
// instance-level greedy the oracle brackets, on the same unfiltered
// candidates, closing the chain oracle ⇒ greedy ⇒
// core.SelectFromCandidates, the selection every solve ends in.
func TestSolveMatchesInstanceGreedy(t *testing.T) {
	opt := coarseOptions()
	sc, cands := unfilteredCandidates(tinyScenario(0), opt)
	sol, err := core.SelectFromCandidates(sc, cands, opt)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := core.BuildInstance(sc, cands, opt)
	greedy := submodular.GreedyLazy(inst)
	if math.Abs(sol.ApproxValue-greedy.Value) > 1e-12 {
		t.Fatalf("Solve ApproxValue %v != instance greedy %v", sol.ApproxValue, greedy.Value)
	}
}

// TestIndexedVsBruteForcePlacement is the end-to-end differential: neither
// the spatial index nor an attached tracer may change the solver's output
// in any bit — same strategies, same order, same utility. It runs the tiny
// scenarios and the seeded expt.BenchScenario sweep (obstacle count,
// device population, finer ε), and checks the traced arm's breakdown
// carries every stage and the pipeline counters.
func TestIndexedVsBruteForcePlacement(t *testing.T) {
	type input struct {
		name       string
		sc         *model.Scenario
		opt        core.Options
		unfiltered bool // select over unfilteredCandidates instead of core.Solve
	}
	var inputs []input
	for variant := 0; variant <= 1; variant++ {
		inputs = append(inputs, input{fmt.Sprintf("tiny-%d", variant), tinyScenario(variant), coarseOptions(), true})
	}
	for _, p := range []struct {
		obstacles, deviceMult int
		eps                   float64
	}{
		{2, 4, 0.3}, {10, 4, 0.3}, {25, 4, 0.3}, {50, 4, 0.3},
		{10, 2, 0.3}, {10, 6, 0.3}, {10, 4, 0.15},
	} {
		opt := core.DefaultOptions()
		opt.Eps = p.eps
		inputs = append(inputs, input{
			fmt.Sprintf("bench-%d-obstacles-x%d-eps-%v", p.obstacles, p.deviceMult, p.eps),
			expt.BenchScenario(1, p.obstacles, p.deviceMult), opt, false,
		})
	}

	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			opt := in.opt
			solve := func(arm string, sc *model.Scenario) *core.Solution {
				t.Helper()
				var sol *core.Solution
				var err error
				if in.unfiltered {
					esc, cands := unfilteredCandidates(sc, opt)
					sol, err = core.SelectFromCandidates(esc, cands, opt)
				} else {
					sol, err = core.Solve(sc, opt)
				}
				if err != nil {
					t.Fatalf("%s: %v", arm, err)
				}
				return sol
			}
			// The solver keeps an attached index it does not own, so
			// model.BruteForce answers every occlusion query of this arm by
			// exhaustive scan.
			bruteSc := in.sc.Clone()
			bruteSc.AttachVisibilityIndex(model.BruteForce(bruteSc.Obstacles))
			brute := solve("brute force", bruteSc)
			indexed := solve("indexed", in.sc)
			opt.Tracer = hipotrace.New()
			traced := solve("traced", in.sc)

			for _, pair := range []struct {
				arm       string
				want, got *core.Solution
			}{{"indexed", brute, indexed}, {"traced", indexed, traced}} {
				if len(pair.want.Placed) != len(pair.got.Placed) {
					t.Fatalf("%s: %d strategies, reference %d", pair.arm, len(pair.got.Placed), len(pair.want.Placed))
				}
				for i := range pair.want.Placed {
					b, x := pair.want.Placed[i], pair.got.Placed[i]
					if math.Float64bits(b.Pos.X) != math.Float64bits(x.Pos.X) ||
						math.Float64bits(b.Pos.Y) != math.Float64bits(x.Pos.Y) ||
						math.Float64bits(b.Orient) != math.Float64bits(x.Orient) ||
						b.Type != x.Type {
						t.Fatalf("%s: strategy %d differs: reference %+v, got %+v", pair.arm, i, b, x)
					}
				}
				if math.Float64bits(pair.want.Utility) != math.Float64bits(pair.got.Utility) {
					t.Fatalf("%s: utility %v, reference %v", pair.arm, pair.got.Utility, pair.want.Utility)
				}
			}

			tr := opt.Tracer.Breakdown()
			if tr.TotalMs <= 0 {
				t.Fatalf("empty trace: %+v", tr)
			}
			for _, stage := range []string{"discretize", "pdcs", "greedy"} {
				if _, ok := tr.StageTotalsMs[stage]; !ok {
					t.Fatalf("trace lacks stage %q: %v", stage, tr.StageTotalsMs)
				}
			}
			for _, ctr := range []string{"los_queries", "gain_evals", "candidates_kept"} {
				if tr.Counters[ctr] <= 0 {
					t.Fatalf("trace counter %s is %d", ctr, tr.Counters[ctr])
				}
			}
			if raw, swept := tr.Counters["positions_raw"], tr.Counters["candidate_positions"]; swept <= 0 || raw < swept {
				t.Fatalf("trace funnel: positions_raw %d, candidate_positions %d", raw, swept)
			}
		})
	}
}
