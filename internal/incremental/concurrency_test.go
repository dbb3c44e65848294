// Tests of Solve's concurrent charger-type pipelines: the worker count
// changes scheduling only, never placements or counters.
package incremental_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hipo/internal/core"
	"hipo/internal/corpus"
	"hipo/internal/expt"
	"hipo/internal/incremental"
	"hipo/internal/model"
)

// TestSessionDeterministicAcrossWorkers runs sessions at Workers 1, 2 and
// 0 (GOMAXPROCS) through the same mixed trace and demands identical
// placements, Stats and sweep-store counters after the priming solve and
// every op: Workers bounds the charger-type pool and each type's inner
// pools, and changes nothing else.
func TestSessionDeterministicAcrossWorkers(t *testing.T) {
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
			var sessions []*incremental.Session
			for _, w := range []int{1, 2, 0} {
				sess, err := incremental.NewSession(tc.sc, core.Options{Eps: 0.3, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				sessions = append(sessions, sess)
			}
			check := func(label string) {
				t.Helper()
				var ref *core.Solution
				for i, sess := range sessions {
					sol, err := sess.Solve()
					if err != nil {
						t.Fatalf("%s: session %d: %v", label, i, err)
					}
					if i == 0 {
						ref = sol
						continue
					}
					sameSolution(t, fmt.Sprintf("%s: session %d against Workers=1", label, i), ref, sol)
					if a, b := sessions[0].Stats(), sess.Stats(); a != b {
						t.Fatalf("%s: session %d Stats %+v, Workers=1 %+v", label, i, b, a)
					}
					if a, b := sessions[0].MemoCounts(), sess.MemoCounts(); !reflect.DeepEqual(a, b) {
						t.Fatalf("%s: session %d store counts %v, Workers=1 %v", label, i, b, a)
					}
				}
			}
			check("prime")
			for _, step := range mixedTrace(rand.New(rand.NewSource(7))) {
				// An obstacle drawn over a device is rejected and leaves
				// the session as it was; draw again.
				var m incremental.Mutation
				for {
					m = step.mut(sessions[0].Scenario())
					if err := sessions[0].Apply(m); err == nil {
						break
					}
				}
				for i, sess := range sessions[1:] {
					if err := sess.Apply(m); err != nil {
						t.Fatalf("%s: session %d rejected a mutation Workers=1 accepted: %v", step.label, i+1, err)
					}
				}
				check(step.label)
			}
			if st := sessions[0].Stats(); st.SweepsReused == 0 || st.TasksReused == 0 {
				t.Fatalf("the trace reused no sweep or task, so the store went untested: %+v", st)
			}
		})
	}
}

// TestSessionRaceHammer re-runs a session's mixed trace under several
// GOMAXPROCS settings against cold solves. Under the race detector this
// hammers the charger-type pool: concurrent task regeneration, store
// probes, sweeps and End on per-type state over one shared scenario and
// visibility index.
func TestSessionRaceHammer(t *testing.T) {
	sc := expt.BenchScenario(3, 12, 2)
	opt := core.Options{Eps: 0.3, Workers: 8}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs-%d", procs), func(t *testing.T) {
			sess, err := incremental.NewSession(sc, opt)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := sess.Solve()
			if err != nil {
				t.Fatal(err)
			}
			sameSolution(t, "prime", coldSolve(t, sess.Scenario(), opt), sol)
			for _, step := range mixedTrace(rand.New(rand.NewSource(int64(procs)))) {
				for sess.Apply(step.mut(sess.Scenario())) != nil {
				}
				sol, err := sess.Solve()
				if err != nil {
					t.Fatalf("%s: %v", step.label, err)
				}
				sameSolution(t, step.label, coldSolve(t, sess.Scenario(), opt), sol)
			}
		})
	}
}
