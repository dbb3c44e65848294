// The bit-identity test wall: every corpus family is swept through the seed
// pipeline preserved in internal/pdcs/pdcsref and through every production
// entry point built on pdcs.ExtractAt — Extract at one and four workers, an
// incremental session's first solve and its re-solve after each mutation
// op, and the GPPDCS baseline's grid sweep — and the outputs must agree bit
// for bit. TestExtractAllBenchTiers repeats the ExtractAll comparison, with
// traced arms, on the benchmark's seeded tiers up to 200 obstacles × 200
// devices.
//
// This file is an external test package so it can import internal/corpus,
// which depends on the public hipo API and hence, transitively, on pdcs
// itself — legal only from a _test package.
package pdcs_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"hipo/internal/baselines"
	"hipo/internal/core"
	"hipo/internal/corpus"
	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/hipotrace"
	"hipo/internal/incremental"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/pdcs/pdcsref"
	"hipo/internal/power"
	"hipo/internal/visindex"
)

// wallEps is the public ε the wall solves at; Eps1ForEps maps it to the
// extraction's ε₁ exactly like the solver does.
const wallEps = 0.3

// fresh returns a clone with its own visibility index, so no memoized
// state leaks between arms.
func fresh(sc *model.Scenario) *model.Scenario { return visindex.Ensure(sc.Clone()) }

// reference runs the seed pipeline sequentially.
func reference(sc *model.Scenario, eps1 float64) [][]pdcs.Candidate {
	return pdcsref.ExtractAll(fresh(sc), pdcs.Config{Eps1: eps1, Workers: 1})
}

// extractWith runs ExtractAll on a fresh clone.
func extractWith(sc *model.Scenario, cfg pdcs.Config) [][]pdcs.Candidate {
	return pdcs.ExtractAll(fresh(sc), cfg)
}

// candidatesBitIdentical compares two per-type candidate sets bit for bit:
// same order, same strategies, same coverage lists, Float64bits-equal
// floats throughout.
func candidatesBitIdentical(a, b [][]pdcs.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for q := range a {
		if len(a[q]) != len(b[q]) {
			return false
		}
		for i := range a[q] {
			x, y := a[q][i], b[q][i]
			if math.Float64bits(x.S.Pos.X) != math.Float64bits(y.S.Pos.X) ||
				math.Float64bits(x.S.Pos.Y) != math.Float64bits(y.S.Pos.Y) ||
				math.Float64bits(x.S.Orient) != math.Float64bits(y.S.Orient) ||
				x.S.Type != y.S.Type || len(x.Covers) != len(y.Covers) {
				return false
			}
			for m := range x.Covers {
				if x.Covers[m].Device != y.Covers[m].Device ||
					math.Float64bits(x.Covers[m].Power) != math.Float64bits(y.Covers[m].Power) {
					return false
				}
			}
		}
	}
	return true
}

// TestBitIdentityWall runs two scenarios from every corpus family through
// the seed pipeline and every production entry point, and requires
// ScenarioHash-keyed bit-identical results.
func TestBitIdentityWall(t *testing.T) {
	eps1 := power.Eps1ForEps(wallEps)
	const perFamily = 2
	seen := map[string]bool{}
	for _, fam := range corpus.Names() {
		for i := 0; i < perFamily; i++ {
			t.Run(fmt.Sprintf("%s/%d", fam, i), func(t *testing.T) {
				sc, err := corpus.BuildModel(7, fam, i)
				if err != nil {
					t.Fatal(err)
				}
				hash, err := corpus.ToPublic(sc).ScenarioHash()
				if err != nil {
					t.Fatal(err)
				}
				seen[hash] = true
				ref := reference(sc, eps1)
				for _, w := range []int{1, 4} {
					got := extractWith(sc, pdcs.Config{Eps1: eps1, Workers: w})
					if !candidatesBitIdentical(ref, got) {
						t.Fatalf("scenario %s: Extract (workers=%d) diverged from the seed pipeline", hash, w)
					}
				}
				checkGPPDCS(t, sc, eps1)
				checkSession(t, sc, eps1)
			})
		}
	}
	if len(seen) < len(corpus.Names()) {
		t.Fatalf("only %d distinct scenario hashes across %d families — the wall is not covering the corpus",
			len(seen), len(corpus.Names()))
	}
}

// TestExtractAllBenchTiers is the extraction differential at benchmark
// scale: seeded expt.BenchScenario tiers up to 200 obstacles × 200 devices
// go through the seed pipeline with a tracer, ExtractAll, and ExtractAll
// with a tracer. All three candidate sets must agree bit for bit, both
// traces must carry a pdcs stage span, and the traced ExtractAll must show
// the batched line-of-sight walk and the arena pool engaged. GPPDCS and
// sessions are left to the wall above; at 200×200 they would only repeat
// its checks at many times the cost.
func TestExtractAllBenchTiers(t *testing.T) {
	eps1 := power.Eps1ForEps(wallEps)
	for _, tier := range []struct{ obstacles, deviceMult int }{{10, 4}, {100, 10}, {200, 20}} {
		t.Run(fmt.Sprintf("%d-obstacles-x%d", tier.obstacles, tier.deviceMult), func(t *testing.T) {
			if tier.obstacles >= 100 && testing.Short() {
				t.Skip("benchmark-scale tier")
			}
			sc := expt.BenchScenario(1, tier.obstacles, tier.deviceMult)
			if len(sc.Devices) != 10*tier.deviceMult {
				t.Fatalf("device multiplier %d gave %d devices", tier.deviceMult, len(sc.Devices))
			}
			hash, err := corpus.ToPublic(sc).ScenarioHash()
			if err != nil {
				t.Fatal(err)
			}
			again, err := corpus.ToPublic(expt.BenchScenario(1, tier.obstacles, tier.deviceMult)).ScenarioHash()
			if err != nil || again != hash {
				t.Fatalf("scenario hash not reproducible for a fixed seed: %s then %s (%v)", hash, again, err)
			}

			refTr, tr := hipotrace.New(), hipotrace.New()
			ref := pdcsref.ExtractAll(fresh(sc), pdcs.Config{Eps1: eps1, Tracer: refTr})
			got := extractWith(sc, pdcs.Config{Eps1: eps1})
			traced := extractWith(sc, pdcs.Config{Eps1: eps1, Tracer: tr})
			if !candidatesBitIdentical(ref, got) {
				t.Fatalf("scenario %s: ExtractAll diverged from the seed pipeline", hash)
			}
			if !candidatesBitIdentical(got, traced) {
				t.Fatalf("scenario %s: tracing changed the extracted candidates", hash)
			}
			n := 0
			for _, cs := range got {
				n += len(cs)
			}
			if n == 0 {
				t.Fatal("extraction produced no candidates")
			}
			for _, arm := range []struct {
				name string
				tr   *hipotrace.Tracer
			}{{"seed", refTr}, {"ExtractAll", tr}} {
				st := arm.tr.Breakdown().StageTotalsMs
				if _, ok := st["pdcs"]; !ok {
					t.Fatalf("%s trace lacks the pdcs stage: %v", arm.name, st)
				}
			}
			ctr := tr.Breakdown().Counters
			for _, name := range []string{"los_queries", "candidates_kept", "los_certified", "pool_reuse"} {
				if ctr[name] <= 0 {
					t.Fatalf("traced ExtractAll counter %s is %d", name, ctr[name])
				}
			}
			if ctr["los_certified"]+ctr["los_exact"] != ctr["los_queries"] {
				t.Fatalf("los_certified %d + los_exact %d != los_queries %d", ctr["los_certified"], ctr["los_exact"], ctr["los_queries"])
			}
		})
	}
}

// checkGPPDCS compares the GPPDCS baseline's grid sweep with the seed
// Algorithm 1 run point by point on the raw scenario.
func checkGPPDCS(t *testing.T, sc *model.Scenario, eps1 float64) {
	t.Helper()
	for _, g := range []baselines.Grid{baselines.Square, baselines.Triangle} {
		for q := range sc.ChargerTypes {
			pts := baselines.GridPoints(sc, q, g)
			var ref []pdcs.Candidate
			for _, p := range pts {
				ref = append(ref, pdcsref.SweepPoint(sc, q, p, eps1)...)
			}
			got := baselines.GPPDCSCandidates(sc, q, pts, eps1)
			if !candidatesBitIdentical([][]pdcs.Candidate{ref}, [][]pdcs.Candidate{got}) {
				t.Fatalf("GPPDCS grid %v type %d: sweep diverged from the seed Algorithm 1", g, q)
			}
		}
	}
}

// checkSession drives an incremental session through its first solve and
// one mutation of every kind, and requires each solve to equal greedy
// selection over the seed pipeline's candidates on the session's current
// scenario: same strategies and the same value bits.
func checkSession(t *testing.T, sc *model.Scenario, eps1 float64) {
	t.Helper()
	opt := core.Options{Eps: wallEps, Workers: 4}
	sess, err := incremental.NewSession(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		got, err := sess.Solve()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cur := fresh(sess.Scenario())
		want, err := core.SelectFromCandidates(cur, reference(cur, eps1), opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !sameSolution(want, got) {
			t.Fatalf("%s: session solve %+v diverged from the seed pipeline's %+v", label, got, want)
		}
	}
	check("first solve")

	cur := sess.Scenario()
	dev := cur.Devices[0]
	steps := []struct {
		label string
		muts  []incremental.Mutation
	}{
		{"move-device", []incremental.Mutation{incremental.MoveDevice(0, feasibleNear(cur, dev.Pos, 1), dev.Orient+0.4)}},
		{"add-device", []incremental.Mutation{incremental.AddDevice(model.Device{
			Pos: feasibleNear(cur, dev.Pos, 2.5), Orient: 2.1, Type: len(cur.DeviceTypes) - 1})}},
		{"remove-device", []incremental.Mutation{incremental.RemoveDevice(len(cur.Devices) - 1)}},
		{"add-obstacle", obstacleCandidates(cur)},
	}
	for _, step := range steps {
		applied := false
		for _, m := range step.muts {
			if sess.Apply(m) == nil {
				applied = true
				break
			}
		}
		if !applied {
			t.Fatalf("%s: no candidate mutation was valid", step.label)
		}
		check(step.label)
	}
}

// feasibleNear returns the first placeable point found on rings of radius
// r, 2r, … around c.
func feasibleNear(sc *model.Scenario, c geom.Vec, r float64) geom.Vec {
	for k := 1; k < 50; k++ {
		for a := 0; a < 8; a++ {
			p := c.Add(geom.FromAngle(float64(a) * math.Pi / 4).Scale(r * float64(k)))
			if sc.FeasiblePosition(p) {
				return p
			}
		}
	}
	return c
}

// obstacleCandidates lists small square obstacles across the region, in
// the order the session should try them (Apply rejects those that would
// swallow a device).
func obstacleCandidates(sc *model.Scenario) []incremental.Mutation {
	var out []incremental.Mutation
	for _, f := range []float64{0.3, 0.6, 0.15, 0.85, 0.45} {
		x := sc.Region.Min.X + f*sc.Region.Width()
		y := sc.Region.Min.Y + (1-f)*sc.Region.Height()
		out = append(out, incremental.AddObstacle(model.Obstacle{Shape: geom.Rect(x, y, x+1.5, y+1)}))
	}
	return out
}

// sameSolution compares two solutions bit for bit.
func sameSolution(a, b *core.Solution) bool {
	if math.Float64bits(a.ApproxValue) != math.Float64bits(b.ApproxValue) ||
		math.Float64bits(a.Utility) != math.Float64bits(b.Utility) ||
		len(a.Placed) != len(b.Placed) || fmt.Sprint(a.Candidates) != fmt.Sprint(b.Candidates) {
		return false
	}
	for i := range a.Placed {
		x, y := a.Placed[i], b.Placed[i]
		if math.Float64bits(x.Pos.X) != math.Float64bits(y.Pos.X) ||
			math.Float64bits(x.Pos.Y) != math.Float64bits(y.Pos.Y) ||
			math.Float64bits(x.Orient) != math.Float64bits(y.Orient) || x.Type != y.Type {
			return false
		}
	}
	return true
}

// TestExtractRaceHammer re-runs the parallel extraction under several
// GOMAXPROCS settings against the sequential seed reference. Under the race
// detector (CI runs go test -race ./...) this hammers the chunked worker
// pool, the shared tile table, and the pooled per-chunk sweep state
// (scratch, Covers arena, raw buffer and chunk reducer).
func TestExtractRaceHammer(t *testing.T) {
	sc := expt.BenchScenario(3, 12, 2)
	eps1 := power.Eps1ForEps(wallEps)
	ref := reference(sc, eps1)
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			got := extractWith(sc, pdcs.Config{Eps1: eps1, Workers: 8})
			if !candidatesBitIdentical(ref, got) {
				t.Fatalf("GOMAXPROCS=%d rep=%d: parallel extraction diverged from sequential seed reference", procs, rep)
			}
		}
	}
}
