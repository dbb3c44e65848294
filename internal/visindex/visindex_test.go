package visindex

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/visibility"
)

// randomScenario builds a seeded obstacle field on the 40×40 plane: a mix
// of random convex (regular) and star-shaped polygons, the latter matching
// the "obstacles of arbitrary shapes" claim the integration tests exercise.
func randomScenario(seed int64, nObs int) *model.Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &model.Scenario{
		Region: model.Region{Min: geom.V(0, 0), Max: geom.V(40, 40)},
	}
	for h := 0; h < nObs; h++ {
		c := geom.V(2+rng.Float64()*36, 2+rng.Float64()*36)
		if rng.Intn(2) == 0 {
			k := 3 + rng.Intn(4)
			r := 0.5 + rng.Float64()*1.5
			sc.Obstacles = append(sc.Obstacles, model.Obstacle{
				Shape: geom.RegularPolygon(c, r, k, rng.Float64()*2*math.Pi),
			})
			continue
		}
		k := 5 + rng.Intn(4)
		vs := make([]geom.Vec, k)
		for i := range vs {
			theta := 2 * math.Pi * float64(i) / float64(k)
			r := 0.4 + rng.Float64()*1.6
			vs[i] = c.Add(geom.FromAngle(theta).Scale(r))
		}
		sc.Obstacles = append(sc.Obstacles, model.Obstacle{Shape: geom.Polygon{Vertices: vs}})
	}
	return sc
}

func randomPoint(rng *rand.Rand) geom.Vec {
	return geom.V(rng.Float64()*44-2, rng.Float64()*44-2)
}

// TestLineOfSightDifferential asserts bit-for-bit agreement between the
// indexed and brute-force line-of-sight predicates on randomized seeded
// scenarios, including endpoints on obstacle vertices and degenerate
// segments.
func TestLineOfSightDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		sc := randomScenario(seed, 5+int(seed)*7)
		ix := New(sc)
		rng := rand.New(rand.NewSource(seed + 100))
		mismatches := 0
		for i := 0; i < 4000; i++ {
			var a, b geom.Vec
			switch i % 5 {
			case 0: // endpoint on an obstacle vertex
				o := sc.Obstacles[rng.Intn(len(sc.Obstacles))]
				a = o.Shape.Vertices[rng.Intn(len(o.Shape.Vertices))]
				b = randomPoint(rng)
			case 1: // degenerate: zero-length segment
				a = randomPoint(rng)
				b = a
			case 2: // both endpoints on (possibly distinct) obstacle vertices
				o1 := sc.Obstacles[rng.Intn(len(sc.Obstacles))]
				o2 := sc.Obstacles[rng.Intn(len(sc.Obstacles))]
				a = o1.Shape.Vertices[rng.Intn(len(o1.Shape.Vertices))]
				b = o2.Shape.Vertices[rng.Intn(len(o2.Shape.Vertices))]
			default:
				a = randomPoint(rng)
				b = randomPoint(rng)
			}
			got := ix.LineOfSight(a, b)
			want := model.BruteForce(sc.Obstacles).LineOfSight(a, b)
			if got != want {
				mismatches++
				if mismatches <= 3 {
					t.Errorf("seed %d: LineOfSight(%v, %v) = %v, brute force %v", seed, a, b, got, want)
				}
			}
		}
		if mismatches > 0 {
			t.Fatalf("seed %d: %d/4000 line-of-sight mismatches", seed, mismatches)
		}
	}
}

// TestPointInObstacleDifferential asserts agreement of the containment
// query with the brute-force scan, including points on boundaries and
// vertices.
func TestPointInObstacleDifferential(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sc := randomScenario(seed, 20)
		ix := New(sc)
		brute := func(p geom.Vec) bool {
			for _, o := range sc.Obstacles {
				if o.Shape.ContainsInterior(p) {
					return true
				}
			}
			return false
		}
		rng := rand.New(rand.NewSource(seed + 200))
		for i := 0; i < 4000; i++ {
			var p geom.Vec
			switch i % 4 {
			case 0:
				o := sc.Obstacles[rng.Intn(len(sc.Obstacles))]
				p = o.Shape.Vertices[rng.Intn(len(o.Shape.Vertices))]
			case 1: // near or inside an obstacle centroid
				o := sc.Obstacles[rng.Intn(len(sc.Obstacles))]
				p = o.Shape.Centroid().Add(geom.V(rng.NormFloat64()*0.5, rng.NormFloat64()*0.5))
			default:
				p = randomPoint(rng)
			}
			if got, want := ix.PointInObstacle(p), brute(p); got != want {
				t.Fatalf("seed %d: PointInObstacle(%v) = %v, brute force %v", seed, p, got, want)
			}
		}
	}
}

// TestScenarioDelegation verifies that attaching the index leaves the
// scenario-level predicates bit-for-bit unchanged.
func TestScenarioDelegation(t *testing.T) {
	sc := randomScenario(3, 25)
	indexed := Ensure(sc)
	if indexed == sc {
		t.Fatal("Ensure should clone when no index is attached")
	}
	if Ensure(indexed) != indexed {
		t.Fatal("Ensure should be a no-op on an indexed scenario")
	}
	if sc.AttachedVisibilityIndex() != nil {
		t.Fatal("Ensure must not mutate the caller's scenario")
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		a, b := randomPoint(rng), randomPoint(rng)
		if indexed.LineOfSight(a, b) != sc.LineOfSight(a, b) {
			t.Fatalf("LineOfSight diverges at (%v, %v)", a, b)
		}
		if indexed.FeasiblePosition(a) != sc.FeasiblePosition(a) {
			t.Fatalf("FeasiblePosition diverges at %v", a)
		}
	}
}

// TestMemoizedViewsMatchBruteForce checks the Shadow / EventAngles /
// HoleRays memos against the index-free implementations, and that repeated
// queries hit the memo (same backing result).
func TestMemoizedViewsMatchBruteForce(t *testing.T) {
	sc := randomScenario(7, 30)
	ix := New(sc)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := randomPoint(rng)

		gotE := ix.EventAngles(p)
		wantE := visibility.EventAnglesOf(p, sc.Obstacles)
		if len(gotE) != len(wantE) {
			t.Fatalf("EventAngles(%v): %d angles, want %d", p, len(gotE), len(wantE))
		}
		for k := range gotE {
			if math.Float64bits(gotE[k]) != math.Float64bits(wantE[k]) {
				t.Fatalf("EventAngles(%v)[%d] = %v, want %v", p, k, gotE[k], wantE[k])
			}
		}

		gotS := ix.Shadow(p).Intervals()
		wantS := visibility.ShadowOf(p, sc.Obstacles).Intervals()
		if len(gotS) != len(wantS) {
			t.Fatalf("Shadow(%v): %d intervals, want %d", p, len(gotS), len(wantS))
		}
		for k := range gotS {
			if math.Float64bits(gotS[k].Lo) != math.Float64bits(wantS[k].Lo) ||
				math.Float64bits(gotS[k].Hi) != math.Float64bits(wantS[k].Hi) {
				t.Fatalf("Shadow(%v)[%d] = %+v, want %+v", p, k, gotS[k], wantS[k])
			}
		}

		gotH := ix.HoleRays(p, 10)
		wantH := visibility.HoleRaysOf(p, 10, sc.Obstacles, model.BruteForce(sc.Obstacles).LineOfSight)
		if len(gotH) != len(wantH) {
			t.Fatalf("HoleRays(%v): %d rays, want %d", p, len(gotH), len(wantH))
		}
		for k := range gotH {
			if !gotH[k].A.Eq(wantH[k].A) || !gotH[k].B.Eq(wantH[k].B) {
				t.Fatalf("HoleRays(%v)[%d] = %+v, want %+v", p, k, gotH[k], wantH[k])
			}
		}

		// Memo hit: the exact same slice header must come back.
		again := ix.EventAngles(p)
		if len(again) > 0 && &again[0] != &gotE[0] {
			t.Fatalf("EventAngles(%v) second call did not hit the memo", p)
		}
	}
}

// TestConcurrentReaders hammers one index from many goroutines; run under
// -race this validates the concurrent-reader contract (memos included).
func TestConcurrentReaders(t *testing.T) {
	sc := randomScenario(11, 40)
	ix := New(sc)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				a, b := randomPoint(rng), randomPoint(rng)
				got := ix.LineOfSight(a, b)
				if got != model.BruteForce(sc.Obstacles).LineOfSight(a, b) {
					t.Errorf("goroutine %d: LineOfSight mismatch at (%v, %v)", g, a, b)
					return
				}
				// Shared viewpoints across goroutines exercise memo races.
				p := sc.Obstacles[i%len(sc.Obstacles)].Shape.Vertices[0]
				_ = ix.EventAngles(p)
				_ = ix.Shadow(p)
				_ = ix.HoleRays(p, 8)
				_ = ix.PointInObstacle(a)
			}
		}(g)
	}
	wg.Wait()
}

// TestEmptyAndSingleObstacle covers the trivial index shapes.
func TestEmptyAndSingleObstacle(t *testing.T) {
	empty := &model.Scenario{Region: model.Region{Min: geom.V(0, 0), Max: geom.V(10, 10)}}
	ix := New(empty)
	if !ix.LineOfSight(geom.V(0, 0), geom.V(10, 10)) {
		t.Fatal("empty index must always grant line of sight")
	}
	if ix.PointInObstacle(geom.V(5, 5)) {
		t.Fatal("empty index must never report containment")
	}

	one := &model.Scenario{
		Region:    model.Region{Min: geom.V(0, 0), Max: geom.V(10, 10)},
		Obstacles: []model.Obstacle{{Shape: geom.Rect(4, 4, 6, 6)}},
	}
	ix = New(one)
	if ix.LineOfSight(geom.V(0, 5), geom.V(10, 5)) {
		t.Fatal("segment through the square must be blocked")
	}
	if !ix.LineOfSight(geom.V(0, 9), geom.V(10, 9)) {
		t.Fatal("segment above the square must be clear")
	}
	if !ix.PointInObstacle(geom.V(5, 5)) {
		t.Fatal("center of the square is inside the obstacle")
	}
	if ix.PointInObstacle(geom.V(4, 4)) {
		t.Fatal("corner of the square is on the boundary, not strictly inside")
	}
	// Segment entirely inside the obstacle: no edge crossing, still blocked.
	if ix.LineOfSight(geom.V(4.5, 5), geom.V(5.5, 5)) {
		t.Fatal("segment inside the square must be blocked")
	}
	// Segment entering and leaving through opposite vertices.
	if ix.LineOfSight(geom.V(3, 3), geom.V(7, 7)) {
		t.Fatal("diagonal through both corners passes the interior: blocked")
	}
}

// TestClipToBox pins the Liang–Barsky clipper on inside, crossing, grazing,
// and disjoint segments.
func TestClipToBox(t *testing.T) {
	lo, hi := geom.V(0, 0), geom.V(10, 10)
	if _, _, ok := clipToBox(geom.V(-5, -5), geom.V(-1, -1), lo, hi); ok {
		t.Fatal("disjoint segment must not clip")
	}
	if _, _, ok := clipToBox(geom.V(-5, 20), geom.V(15, 20), lo, hi); ok {
		t.Fatal("parallel segment outside the slab must not clip")
	}
	t0, t1, ok := clipToBox(geom.V(2, 2), geom.V(8, 8), lo, hi)
	if !ok || t0 > geom.Eps || t1 < 1-geom.Eps {
		t.Fatalf("interior segment should clip to [0,1], got [%v,%v] ok=%v", t0, t1, ok)
	}
	t0, t1, ok = clipToBox(geom.V(-10, 5), geom.V(20, 5), lo, hi)
	if !ok || math.Abs(t0-1.0/3) > 1e-12 || math.Abs(t1-2.0/3) > 1e-12 {
		t.Fatalf("crossing segment clip = [%v,%v] ok=%v, want [1/3,2/3]", t0, t1, ok)
	}
}

// TestLineOfSightAllocationFree pins the DDA walk (Index.LineOfSight, at
// most 256 obstacles so the visited mask stays on the stack) and the
// certificate (Certificate.Classify) to zero heap allocations, on rays
// many of which reach the exact blocking predicate or a certified verdict.
func TestLineOfSightAllocationFree(t *testing.T) {
	sc := randomScenario(99, 50)
	ix := New(sc)
	qs := benchQueries(7, 256)
	blocked := 0
	for _, q := range qs {
		if !ix.LineOfSight(q.A, q.B) {
			blocked++
		}
	}
	if blocked == 0 || blocked == len(qs) {
		t.Fatalf("%d of %d rays blocked: the predicate is not exercised both ways", blocked, len(qs))
	}
	var sink bool
	if n := testing.AllocsPerRun(20, func() {
		for _, q := range qs {
			sink = sink != ix.LineOfSight(q.A, q.B)
		}
	}); n != 0 {
		t.Errorf("Index.LineOfSight allocates %v times per run", n)
	}

	certs := make([]*Certificate, 32)
	for i := range certs {
		certs[i] = newCertificate(ix, qs[i].B, 64)
	}
	if n := testing.AllocsPerRun(20, func() {
		for i := range certs {
			for _, q := range qs {
				sink = sink != (certs[i].Classify(q.A, math.Sqrt(q.A.Sub(qs[i].B).Len2())) == Visible)
			}
		}
	}); n != 0 {
		t.Errorf("Certificate.Classify allocates %v times per run", n)
	}
	_ = sink
}
