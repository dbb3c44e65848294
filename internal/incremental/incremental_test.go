// Parity tests: every incremental solve must be bit-for-bit identical to a
// cold core.Solve of the session's current scenario — same strategies, same
// approximate value bits, same exact utility bits. External test package so
// it can lean on internal/expt and internal/oracle.
package incremental_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hipo/internal/core"
	"hipo/internal/corpus"
	"hipo/internal/discretize"
	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/hipotrace"
	"hipo/internal/incremental"
	"hipo/internal/model"
	"hipo/internal/oracle"
	"hipo/internal/submodular"
	"hipo/internal/visindex"
)

func testOptions() core.Options {
	return core.Options{Eps: 0.3, Workers: 4}
}

// midScenario is large enough that blast radii leave real cache survivors:
// a 60×60 region with obstacles and devices spread out relative to d_max.
func midScenario() *model.Scenario {
	return expt.BenchScenario(5, 8, 1)
}

// coldSolve runs the cold pipeline on its own clone.
func coldSolve(t *testing.T, sc *model.Scenario, opt core.Options) *core.Solution {
	t.Helper()
	sol, err := core.Solve(sc.Clone(), opt)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	return sol
}

func sameSolution(t *testing.T, label string, cold, inc *core.Solution) {
	t.Helper()
	if math.Float64bits(cold.ApproxValue) != math.Float64bits(inc.ApproxValue) {
		t.Fatalf("%s: ApproxValue %v vs cold %v", label, inc.ApproxValue, cold.ApproxValue)
	}
	if math.Float64bits(cold.Utility) != math.Float64bits(inc.Utility) {
		t.Fatalf("%s: Utility %v vs cold %v", label, inc.Utility, cold.Utility)
	}
	if len(cold.Placed) != len(inc.Placed) {
		t.Fatalf("%s: %d strategies vs cold %d", label, len(inc.Placed), len(cold.Placed))
	}
	for i := range cold.Placed {
		a, b := cold.Placed[i], inc.Placed[i]
		if math.Float64bits(a.Pos.X) != math.Float64bits(b.Pos.X) ||
			math.Float64bits(a.Pos.Y) != math.Float64bits(b.Pos.Y) ||
			math.Float64bits(a.Orient) != math.Float64bits(b.Orient) ||
			a.Type != b.Type {
			t.Fatalf("%s: strategy %d diverged: %+v vs cold %+v", label, i, b, a)
		}
	}
	if len(cold.Candidates) != len(inc.Candidates) {
		t.Fatalf("%s: candidate counts %v vs cold %v", label, inc.Candidates, cold.Candidates)
	}
	for q := range cold.Candidates {
		if cold.Candidates[q] != inc.Candidates[q] {
			t.Fatalf("%s: candidate counts %v vs cold %v", label, inc.Candidates, cold.Candidates)
		}
	}
}

// feasiblePoint finds a placeable point near the region center.
func feasiblePoint(sc *model.Scenario) geom.Vec {
	c := geom.V((sc.Region.Min.X+sc.Region.Max.X)/2, (sc.Region.Min.Y+sc.Region.Max.Y)/2)
	for r := 0.0; r < sc.Region.Width()/2; r += 0.7 {
		for _, d := range []geom.Vec{{X: r, Y: 0}, {X: -r, Y: 0.3 * r}, {X: 0.5 * r, Y: r}, {X: 0, Y: -r}} {
			p := geom.V(c.X+d.X, c.Y+d.Y)
			if sc.FeasiblePosition(p) {
				return p
			}
		}
	}
	return c
}

// parityStep is one mutation of a parity run.
type parityStep struct {
	label string
	mut   incremental.Mutation
}

// runParity primes a session on sc, checks the mutation-free fast path, then
// applies the steps built from the session's scenario one at a time and
// demands bit-identity with a cold solve after the prime and every step.
func runParity(t *testing.T, sc *model.Scenario, steps func(cur *model.Scenario) []parityStep) incremental.Stats {
	t.Helper()
	opt := testOptions()
	sess, err := incremental.NewSession(sc, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Cold prime through the incremental machinery.
	inc, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "prime", coldSolve(t, sess.Scenario(), opt), inc)

	// Fast path: no mutations since the last solve.
	again, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if again != inc {
		t.Fatal("mutation-free re-solve did not reuse the previous solution")
	}

	for _, step := range steps(sess.Scenario()) {
		if err := sess.Apply(step.mut); err != nil {
			t.Fatalf("%s: %v", step.label, err)
		}
		inc, err := sess.Solve()
		if err != nil {
			t.Fatalf("%s: %v", step.label, err)
		}
		sameSolution(t, step.label, coldSolve(t, sess.Scenario(), opt), inc)
		if len(inc.Placed) == 0 || inc.Utility <= 0 {
			t.Fatalf("%s: degenerate placement: %d chargers, utility %v", step.label, len(inc.Placed), inc.Utility)
		}
	}

	st := sess.Stats()
	if st.FastPath != 1 {
		t.Fatalf("fast path served %d times, want 1", st.FastPath)
	}
	return st
}

// TestParityAcrossMutations drives sessions through mutation sequences and
// demands bit-identity with a cold solve at each step: every mutation kind
// on a mid-sized scenario, and on the seeded benchmark tiers (up to 200
// obstacles × 200 devices) a device move, a device add, and the removal of
// the added device, at positions drawn by a seeded rejection sampler.
func TestParityAcrossMutations(t *testing.T) {
	t.Run("mid", func(t *testing.T) {
		st := runParity(t, midScenario(), func(cur *model.Scenario) []parityStep {
			return []parityStep{
				{"move", incremental.MoveDevice(0, feasiblePoint(cur), 1.25)},
				{"add-device", incremental.AddDevice(model.Device{Pos: feasiblePoint(cur).Add(geom.V(1.3, -0.9)), Orient: 2.1, Type: 0})},
				{"remove-device", incremental.RemoveDevice(1)},
				{"add-obstacle", incremental.AddObstacle(model.Obstacle{Shape: geom.Rect(
					cur.Region.Min.X+2, cur.Region.Min.Y+2, cur.Region.Min.X+5, cur.Region.Min.Y+4)})},
			}
		})
		if st.TasksReused == 0 || st.SweepsReused == 0 {
			t.Fatalf("no cache reuse across mutations — the blast radius is degenerate: %+v", st)
		}
		if st.GainsWarm == 0 {
			t.Fatalf("no warm gain replays across mutations: %+v", st)
		}
	})

	const seed = 1
	for _, tier := range []struct{ obstacles, deviceMult int }{{10, 4}, {50, 4}, {100, 10}, {200, 20}} {
		t.Run(fmt.Sprintf("bench-%d-obstacles-x%d", tier.obstacles, tier.deviceMult), func(t *testing.T) {
			if tier.obstacles >= 100 && testing.Short() {
				t.Skip("benchmark-scale tier")
			}
			st := runParity(t, expt.BenchScenario(seed, tier.obstacles, tier.deviceMult), func(cur *model.Scenario) []parityStep {
				rng := rand.New(rand.NewSource(seed + 104729))
				feasible := func() geom.Vec {
					for {
						p := geom.V(cur.Region.Min.X+rng.Float64()*cur.Region.Width(),
							cur.Region.Min.Y+rng.Float64()*cur.Region.Height())
						if cur.FeasiblePosition(p) {
							return p
						}
					}
				}
				return []parityStep{
					{"move", incremental.MoveDevice(0, feasible(), rng.Float64()*2*math.Pi)},
					{"add-device", incremental.AddDevice(model.Device{Pos: feasible(), Orient: rng.Float64() * 2 * math.Pi})},
					// Remove the device just added, so every step is a
					// single-device edit against a comparable population.
					{"remove-added-device", incremental.RemoveDevice(len(cur.Devices))},
				}
			})
			if st.Mutations != 3 || st.Solves != 4 {
				t.Fatalf("session counters off: %+v", st)
			}
			if st.TasksReused+st.SweepsReused == 0 {
				t.Fatalf("warm session reused nothing: %+v", st)
			}
		})
	}
}

// TestRemoveThenReAddRoundTrip removes a device and re-adds it (it lands at
// the tail index, so strategy enumeration order legitimately changes); the
// achieved utility must return to the original up to summation-order jitter.
func TestRemoveThenReAddRoundTrip(t *testing.T) {
	sc := midScenario()
	opt := testOptions()
	sess, err := incremental.NewSession(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}

	victim := sc.Devices[2]
	if err := sess.Apply(incremental.RemoveDevice(2)); err != nil {
		t.Fatal(err)
	}
	mid, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "removed", coldSolve(t, sess.Scenario(), opt), mid)

	if err := sess.Apply(incremental.AddDevice(victim)); err != nil {
		t.Fatal(err)
	}
	back, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "re-added", coldSolve(t, sess.Scenario(), opt), back)
	if math.Abs(back.Utility-base.Utility) > 1e-9 {
		t.Fatalf("utility did not round-trip: %v -> %v -> %v", base.Utility, mid.Utility, back.Utility)
	}
	if math.Abs(back.ApproxValue-base.ApproxValue) > 1e-9 {
		t.Fatalf("approx value did not round-trip: %v -> %v", base.ApproxValue, back.ApproxValue)
	}
}

// TestWarmSolveMeetsOracleBound re-solves tiny mutated instances and checks
// the incremental (warm-started) value against the exhaustive optimum over
// the same candidate set — the 1/2 − ε guarantee must survive warm starts.
func TestWarmSolveMeetsOracleBound(t *testing.T) {
	sc := &model.Scenario{
		Region: model.Region{Min: geom.V(0, 0), Max: geom.V(12, 12)},
		ChargerTypes: []model.ChargerType{
			{Name: "t1", Alpha: math.Pi / 2, DMin: 0.5, DMax: 6, Count: 2},
		},
		DeviceTypes: []model.DeviceType{{Name: "d", Alpha: 2 * math.Pi, PTh: 0.05}},
		Power:       [][]model.PowerParams{{{A: 100, B: 40}}},
		Obstacles:   []model.Obstacle{{Shape: geom.Rect(5, 5, 7, 7)}},
		Devices: []model.Device{
			{Pos: geom.V(3, 3), Orient: 0},
			{Pos: geom.V(9, 4), Orient: math.Pi},
			{Pos: geom.V(4, 9), Orient: -math.Pi / 2},
		},
	}
	opt := testOptions()
	sess, err := incremental.NewSession(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	muts := []incremental.Mutation{
		incremental.MoveDevice(1, geom.V(8.2, 8.6), 2.0),
		incremental.AddDevice(model.Device{Pos: geom.V(10.5, 10.5), Orient: 0.5}),
		incremental.RemoveDevice(0),
	}
	for step, m := range muts {
		if err := sess.Apply(m); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		sol, err := sess.Solve()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		orc, inst, err := oracle.OptimalValue(sess.Scenario(), opt, 5_000_000)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if orc.Value <= 0 {
			t.Fatalf("step %d: degenerate oracle optimum %v", step, orc.Value)
		}
		if sol.ApproxValue < orc.Value/2-1e-9 {
			t.Fatalf("step %d: warm value %v violates the 1/2 bound against optimum %v",
				step, sol.ApproxValue, orc.Value)
		}
		if sol.ApproxValue > orc.Value+1e-9 {
			t.Fatalf("step %d: warm value %v exceeds the optimum %v", step, sol.ApproxValue, orc.Value)
		}
		// And the warm value equals the cold instance-level greedy exactly.
		if g := submodular.GreedyLazy(inst); math.Float64bits(g.Value) != math.Float64bits(sol.ApproxValue) {
			t.Fatalf("step %d: warm value %v differs from cold greedy %v", step, sol.ApproxValue, g.Value)
		}
	}
}

// TestMutationValidation exercises the rejection paths; a rejected mutation
// must leave the session consistent (next solve still matches cold).
func TestMutationValidation(t *testing.T) {
	sc := midScenario()
	opt := testOptions()
	sess, err := incremental.NewSession(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	bad := []incremental.Mutation{
		incremental.RemoveDevice(-1),
		incremental.RemoveDevice(len(sc.Devices)),
		incremental.MoveDevice(0, geom.V(math.NaN(), 1), 0),
		incremental.MoveDevice(0, geom.V(sc.Region.Max.X+100, 1), 0),
		incremental.AddDevice(model.Device{Pos: geom.V(1, 1), Type: 99}),
		incremental.AddObstacle(model.Obstacle{Shape: geom.Polygon{Vertices: []geom.Vec{{X: 0, Y: 0}}}}),
		incremental.AddObstacle(model.Obstacle{Shape: geom.Rect(
			sc.Devices[0].Pos.X-1, sc.Devices[0].Pos.Y-1,
			sc.Devices[0].Pos.X+1, sc.Devices[0].Pos.Y+1)}),
	}
	for i, m := range bad {
		if err := sess.Apply(m); err == nil {
			t.Fatalf("mutation %d was accepted", i)
		}
	}
	inc, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "after-rejections", coldSolve(t, sess.Scenario(), opt), inc)

	if _, err := incremental.NewSession(sc, core.Options{Variant: core.GreedyPerType}); err == nil {
		t.Fatal("per-type variant accepted")
	}
	if _, err := incremental.NewSession(sc, core.Options{SkipDominanceFilter: true}); err == nil {
		t.Fatal("SkipDominanceFilter accepted")
	}
}

// traceStep draws one mutation from the scenario it will be applied to.
type traceStep struct {
	label string
	mut   func(cur *model.Scenario) incremental.Mutation
}

// mixedTrace is a device move, a device add, the removal of the added
// device and an obstacle insert, at positions drawn from rng.
func mixedTrace(rng *rand.Rand) []traceStep {
	feasible := func(cur *model.Scenario) geom.Vec {
		for {
			p := geom.V(cur.Region.Min.X+rng.Float64()*cur.Region.Width(),
				cur.Region.Min.Y+rng.Float64()*cur.Region.Height())
			if cur.FeasiblePosition(p) {
				return p
			}
		}
	}
	return []traceStep{
		{"move", func(cur *model.Scenario) incremental.Mutation {
			return incremental.MoveDevice(0, feasible(cur), rng.Float64()*2*math.Pi)
		}},
		{"add-device", func(cur *model.Scenario) incremental.Mutation {
			return incremental.AddDevice(model.Device{Pos: feasible(cur), Orient: rng.Float64() * 2 * math.Pi})
		}},
		{"remove-added-device", func(cur *model.Scenario) incremental.Mutation {
			return incremental.RemoveDevice(len(cur.Devices) - 1)
		}},
		{"add-obstacle", func(cur *model.Scenario) incremental.Mutation {
			p := feasible(cur)
			return incremental.AddObstacle(model.Obstacle{Shape: geom.Rect(p.X, p.Y, p.X+1, p.Y+1)})
		}},
	}
}

// TestHeldPositionsAreUseful pins the sweep store's usefulness certificate
// (pdcs.Memo): after a device move, a device add, the removal of the added
// device and an obstacle insert, the positions a warm solve sweeps — held
// positions passed through unfiltered, the rest through FilterUseful —
// equal, element for element, FilterUseful over the full deduplicated list
// of a fresh generator.
func TestHeldPositionsAreUseful(t *testing.T) {
	dense, err := corpus.BuildModel(11, "dense-obstacles", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sc   *model.Scenario
	}{
		{"bench-3-obstacles-x2", expt.BenchScenario(3, 10, 2)},
		{"corpus-dense-obstacles", dense},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := testOptions()
			sess, err := incremental.NewSession(tc.sc, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Solve(); err != nil {
				t.Fatal(err)
			}
			for _, step := range mixedTrace(rand.New(rand.NewSource(7))) {
				// An obstacle drawn over a device is rejected and leaves the
				// session as it was; draw again.
				for {
					if err := sess.Apply(step.mut(sess.Scenario())); err == nil {
						break
					}
				}
				cur := visindex.Ensure(sess.Scenario())
				dcfg := discretize.Config{Eps1: opt.Eps1(), Workers: opt.Workers}
				for q := range cur.ChargerTypes {
					g := discretize.NewGenerator(cur, q, dcfg)
					want := g.FilterUseful(g.Positions(nil))
					got := sess.ExtractPositions(q)
					if len(got) != len(want) {
						t.Fatalf("%s: type %d: %d positions, FilterUseful keeps %d", step.label, q, len(got), len(want))
					}
					for i := range want {
						if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) ||
							math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
							t.Fatalf("%s: type %d: position %d is %v, FilterUseful gives %v", step.label, q, i, got[i], want[i])
						}
					}
				}
				before := sess.Stats().SweepsReused
				inc, err := sess.Solve()
				if err != nil {
					t.Fatalf("%s: %v", step.label, err)
				}
				sameSolution(t, step.label, coldSolve(t, sess.Scenario(), opt), inc)
				if sess.Stats().SweepsReused == before {
					t.Fatalf("%s: no held position was reused, the certificate went untested", step.label)
				}
			}
		})
	}
}

// TestWarmTraceMatchesCold pins that a session's solve is traced like a
// cold one: on the same scenario, a traced priming Session.Solve (every
// task generated, every position swept) and a traced core.Solve record the
// same stages, per charger type, and the same funnel counters, and the
// warm trace carries the visibility memo counters too.
func TestWarmTraceMatchesCold(t *testing.T) {
	sc := midScenario()
	coldOpt, warmOpt := testOptions(), testOptions()
	coldOpt.Tracer, warmOpt.Tracer = hipotrace.New(), hipotrace.New()
	cold := coldSolve(t, sc, coldOpt)
	sess, err := incremental.NewSession(sc, warmOpt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "priming solve", cold, warm)
	cb, wb := coldOpt.Tracer.Breakdown(), warmOpt.Tracer.Breakdown()
	stages := func(b *hipotrace.Breakdown) []string {
		var out []string
		for _, s := range b.Stages {
			out = append(out, s.Stage+"/"+s.Label)
		}
		// A session runs its charger types concurrently, so their spans
		// may start in any order.
		slices.Sort(out)
		return out
	}
	if c, w := stages(cb), stages(wb); !slices.Equal(c, w) {
		t.Errorf("stages: warm %v, cold %v", w, c)
	}
	for _, ctr := range []string{"positions_raw", "candidate_positions", "candidates_raw",
		"candidates_kept", "los_queries", "feasibility_queries", "power_levels"} {
		if c, w := cb.Counters[ctr], wb.Counters[ctr]; c == 0 || c != w {
			t.Errorf("counter %s: warm %d, cold %d", ctr, w, c)
		}
	}
	// Concurrent types may race to the same memo entry, which moves a
	// lookup between hit and miss but not the number of lookups.
	memo := func(b *hipotrace.Breakdown) int64 { return b.Counters["vis_memo_hits"] + b.Counters["vis_memo_misses"] }
	if c, w := memo(cb), memo(wb); c == 0 || c != w {
		t.Errorf("visibility memo lookups: warm %d, cold %d", w, c)
	}
}
