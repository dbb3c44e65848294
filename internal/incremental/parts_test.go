// Tests of the part-grained task cache: after every mutation each cached
// task equals a fresh generator's, and a solve regenerates exactly the
// parts the mutation reached.
package incremental_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hipo/internal/core"
	"hipo/internal/corpus"
	"hipo/internal/discretize"
	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/incremental"
	"hipo/internal/model"
	"hipo/internal/visindex"
)

// neededPairs lists, per task i of charger type q, the pair partners
// j > i within 2·d_max: the pair parts task i must hold.
func neededPairs(sc *model.Scenario, q int) [][]int {
	r := 2 * sc.ChargerTypes[q].DMax
	out := make([][]int, len(sc.Devices))
	for i, a := range sc.Devices {
		for j := i + 1; j < len(sc.Devices); j++ {
			if a.Pos.Dist(sc.Devices[j].Pos) <= r {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

// missingParts returns, per charger type, the pairs [i, j] a solve of the
// session's current scenario needs and the cache does not hold, and the
// number of tasks with any part missing.
func missingParts(sess *incremental.Session) (pairs [][][2]int, tasks int) {
	sc := sess.Scenario()
	pairs = make([][][2]int, len(sc.ChargerTypes))
	for q := range sc.ChargerTypes {
		c := sess.TaskCache(q)
		for i, js := range neededPairs(sc, q) {
			held := map[int]bool{}
			parts := c.Parts(i)
			whole := len(parts) >= 2 && parts[0].Kind == discretize.RingCuts && parts[1].Kind == discretize.EventSamples
			for _, p := range parts {
				if p.Kind == discretize.Pair {
					held[int(p.J)] = true
				}
			}
			for _, j := range js {
				if !held[j] {
					pairs[q] = append(pairs[q], [2]int{i, j})
					whole = false
				}
			}
			if whole && len(parts) != 2+len(js) {
				whole = false
			}
			if !whole {
				tasks++
			}
		}
	}
	return pairs, tasks
}

// TestTaskPartsMatchFreshGenerator replays the mixed trace (move, add,
// remove-the-added, obstacle), then moves a middle device and removes
// another. After every
// solve each cached task must equal a fresh generator's TaskPositions,
// element for element and bit for bit, with a span table of ring cuts,
// event samples and one pair per neighbor j > i in ascending j. Before
// every solve, the tasks with a part missing must be what Stats counts as
// recomputed and the pairs missing what the cache regenerates; after a
// single move of device m they must be exactly the pairs containing m.
func TestTaskPartsMatchFreshGenerator(t *testing.T) {
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
			opt := core.Options{Eps: 0.3, Workers: 2}
			sess, err := incremental.NewSession(tc.sc, opt)
			if err != nil {
				t.Fatal(err)
			}
			solve := func(label string, moved int) {
				t.Helper()
				missing, tasks := missingParts(sess)
				before := sess.Stats()
				var pairsBefore []int
				for q := range missing {
					pairsBefore = append(pairsBefore, sess.TaskCache(q).Stats().Pairs)
				}
				if _, err := sess.Solve(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := sess.Stats().TasksRecomputed - before.TasksRecomputed; got != tasks {
					t.Fatalf("%s: %d tasks recomputed, %d had a part missing", label, got, tasks)
				}
				cur := visindex.Ensure(sess.Scenario())
				for q := range cur.ChargerTypes {
					c := sess.TaskCache(q)
					if got := c.Stats().Pairs - pairsBefore[q]; got != len(missing[q]) {
						t.Fatalf("%s: type %d: %d pairs regenerated, %d were missing", label, q, got, len(missing[q]))
					}
					if moved >= 0 {
						var want [][2]int
						for i, js := range neededPairs(cur, q) {
							for _, j := range js {
								if i == moved || j == moved {
									want = append(want, [2]int{i, j})
								}
							}
						}
						lower := 0
						for _, pr := range want {
							if pr[1] == moved {
								lower++
							}
						}
						if moved > 0 && q == 0 && (lower == 0 || lower == len(want)) {
							t.Fatalf("%s: device %d has pairs %v, none on one side of its index: the move tests too little", label, moved, want)
						}
						if fmt.Sprint(missing[q]) != fmt.Sprint(want) {
							t.Fatalf("%s: type %d: regenerated pairs %v, pairs with device %d %v", label, q, missing[q], moved, want)
						}
					}
					gen := discretize.NewGenerator(cur, q, discretize.Config{Eps1: opt.Eps1(), Workers: 1})
					need := neededPairs(cur, q)
					for i := range cur.Devices {
						got, want := c.Task(i), gen.TaskPositions(i)
						if len(got) != len(want) {
							t.Fatalf("%s: type %d task %d: %d cached positions, %d fresh", label, q, i, len(got), len(want))
						}
						for k := range want {
							if math.Float64bits(got[k].X) != math.Float64bits(want[k].X) ||
								math.Float64bits(got[k].Y) != math.Float64bits(want[k].Y) {
								t.Fatalf("%s: type %d task %d: position %d is %v, fresh %v", label, q, i, k, got[k], want[k])
							}
						}
						parts := c.Parts(i)
						if len(parts) != 2+len(need[i]) || parts[0].Kind != discretize.RingCuts ||
							parts[1].Kind != discretize.EventSamples || int(parts[len(parts)-1].End) != len(want) {
							t.Fatalf("%s: type %d task %d: span table %+v, %d pairs needed", label, q, i, parts, len(need[i]))
						}
						for k, j := range need[i] {
							if p := parts[2+k]; p.Kind != discretize.Pair || int(p.J) != j || p.End < parts[1+k].End {
								t.Fatalf("%s: type %d task %d: span %d is %+v, want the pair with %d", label, q, i, 2+k, p, j)
							}
						}
					}
				}
			}
			solve("prime", -1)
			rng := rand.New(rand.NewSource(7))
			steps := mixedTrace(rng)
			for _, step := range steps {
				// An obstacle drawn over a device is rejected and leaves the
				// session as it was; draw again.
				var m incremental.Mutation
				for {
					if m = step.mut(sess.Scenario()); sess.Apply(m) == nil {
						break
					}
				}
				moved := -1
				if m.Op == incremental.OpMoveDevice {
					moved = m.Index
				}
				solve(step.label, moved)
			}
			// Move a middle device next to another one, so it has pairs on
			// both sides of its index.
			cur := sess.Scenario()
			mid := len(cur.Devices) / 2
			for k := 1; ; k++ {
				p := cur.Devices[(mid+k)%len(cur.Devices)].Pos.Add(geom.V(0.5, 0.5))
				if cur.FeasiblePosition(p) && sess.Apply(incremental.MoveDevice(mid, p, rng.Float64()*2*math.Pi)) == nil {
					break
				}
			}
			solve("move-middle", mid)
			// Remove a middle device: later devices and pair partners shift
			// down by one.
			if err := sess.Apply(incremental.RemoveDevice(mid - 1)); err != nil {
				t.Fatal(err)
			}
			solve("remove-middle", -1)
		})
	}
}

// TestViewpointMemoHoldsLiveDevices pins the bound on the visibility
// index's per-viewpoint memos: after 40 single-device moves and solves the
// session's index holds as many entries as a fresh session's after its
// first solve (the live device positions only), and the next solve, after
// one more move, gives the same placement and the same memo hits and
// misses as on that fresh session and misses only the moved device's new
// viewpoint, so nothing a solve reads was evicted. One worker keeps the
// charger types from missing the same new viewpoint concurrently, so the
// counts are exact.
func TestViewpointMemoHoldsLiveDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("100-obstacle session skipped under -short")
	}
	opt := core.Options{Eps: 0.3, Workers: 1}
	sess, err := incremental.NewSession(expt.BenchScenario(107, 100, 10), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	move := func(cur *model.Scenario) incremental.Mutation {
		for {
			p := geom.V(cur.Region.Min.X+rng.Float64()*cur.Region.Width(),
				cur.Region.Min.Y+rng.Float64()*cur.Region.Height())
			if cur.FeasiblePosition(p) {
				return incremental.MoveDevice(rng.Intn(len(cur.Devices)), p, rng.Float64()*2*math.Pi)
			}
		}
	}
	for k := 0; k < 40; k++ {
		if err := sess.Apply(move(sess.Scenario())); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Solve(); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := incremental.NewSession(sess.Scenario(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Solve(); err != nil {
		t.Fatal(err)
	}
	if got, want := sess.ViewpointMemoLen(), fresh.ViewpointMemoLen(); got != want {
		t.Fatalf("after 40 moves the memos hold %d entries, a fresh session's %d", got, want)
	}
	m := move(sess.Scenario())
	var sols []*core.Solution
	var deltas [][2]int64
	for _, s := range []*incremental.Session{sess, fresh} {
		h0, m0 := s.ViewpointMemoStats()
		if err := s.Apply(m); err != nil {
			t.Fatal(err)
		}
		sol, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		h1, m1 := s.ViewpointMemoStats()
		sols = append(sols, sol)
		deltas = append(deltas, [2]int64{h1 - h0, m1 - m0})
	}
	sameSolution(t, "next solve", sols[1], sols[0])
	if deltas[0] != deltas[1] {
		t.Fatalf("next solve: memo hits/misses %v, a fresh session's %v", deltas[0], deltas[1])
	}
	n := len(sess.Scenario().Devices)
	if live := sess.ViewpointMemoLen(); deltas[0][1]*int64(n) != int64(live) {
		t.Fatalf("next solve: %d memo misses, but %d entries over %d devices is %v per viewpoint", deltas[0][1], live, n, float64(live)/float64(n))
	}
	if deltas[0][0] == 0 {
		t.Fatal("the next solve hit no memo entry, so the bound went untested")
	}
}
