package visindex

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"hipo/internal/geom"
	"hipo/internal/model"
)

// TestEnsureRebuildsAfterObstacleMutation is the regression test for the
// stale-index bug: mutating a scenario's obstacles after an index is
// attached must not let Ensure reuse the old index (whose grid and memos
// answer LOS from the pre-mutation world). After each in-place mutation,
// Ensure must hand back a scenario whose indexed LOS agrees bit-for-bit
// with the brute-force scan over the *current* obstacles.
func TestEnsureRebuildsAfterObstacleMutation(t *testing.T) {
	sc := randomScenario(42, 12)
	cur := Ensure(sc)
	if cur == sc {
		t.Fatal("Ensure did not attach an index to a fresh scenario")
	}
	ix := cur.AttachedVisibilityIndex().(*Index)

	// Warm the memos so a stale reuse would actually serve old answers.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 32; i++ {
		p := randomPoint(rng)
		ix.Shadow(p)
		ix.EventAngles(p)
	}

	check := func(stage string) {
		got := Ensure(cur)
		probe := rand.New(rand.NewSource(99))
		for i := 0; i < 2000; i++ {
			a, b := randomPoint(probe), randomPoint(probe)
			if gi, bf := got.LineOfSight(a, b), model.BruteForce(got.Obstacles).LineOfSight(a, b); gi != bf {
				t.Fatalf("%s: LineOfSight(%v, %v) = %v, brute force %v", stage, a, b, gi, bf)
			}
		}
		cur = got
	}

	// Append an obstacle straddling the middle of the plane, where random
	// probe segments are near-certain to cross it.
	cur.Obstacles = append(cur.Obstacles, model.Obstacle{
		Shape: geom.RegularPolygon(geom.V(20, 20), 6, 8, 0.3),
	})
	check("append")
	if same := Ensure(cur); same != cur {
		t.Fatal("Ensure rebuilt again although the obstacle set is unchanged")
	}

	// Move every vertex of an existing obstacle (pure in-place mutation).
	for i, v := range cur.Obstacles[0].Shape.Vertices {
		cur.Obstacles[0].Shape.Vertices[i] = v.Add(geom.V(5, -3))
	}
	check("move")

	// Remove an obstacle.
	cur.Obstacles = cur.Obstacles[:len(cur.Obstacles)-2]
	check("remove")
}

// TestEnsureKeepsForeignIndex pins the compatibility behavior: an attached
// visibility index that is not a *visindex.Index cannot be fingerprinted,
// so Ensure trusts it as before instead of clobbering it.
func TestEnsureKeepsForeignIndex(t *testing.T) {
	sc := randomScenario(3, 4)
	sc.AttachVisibilityIndex(fakeIndex{})
	if got := Ensure(sc); got != sc {
		t.Fatal("Ensure replaced a foreign visibility index")
	}
}

type fakeIndex struct{}

func (fakeIndex) LineOfSight(a, b geom.Vec) bool  { return true }
func (fakeIndex) PointInObstacle(p geom.Vec) bool { return false }

// TestObstacleHashSensitivity asserts the fingerprint reacts to every kind
// of geometry change and is stable across recomputation and concurrent use.
func TestObstacleHashSensitivity(t *testing.T) {
	sc := randomScenario(5, 6)
	base := ObstacleHash(sc.Obstacles)
	if base != ObstacleHash(sc.Obstacles) {
		t.Fatal("ObstacleHash is not deterministic")
	}
	clone := sc.Clone()
	if ObstacleHash(clone.Obstacles) != base {
		t.Fatal("ObstacleHash differs across a deep clone")
	}
	mutated := sc.Clone()
	mutated.Obstacles[2].Shape.Vertices[0].X = math.Nextafter(
		mutated.Obstacles[2].Shape.Vertices[0].X, math.Inf(1))
	if ObstacleHash(mutated.Obstacles) == base {
		t.Fatal("ObstacleHash missed a one-ULP vertex move")
	}
	if ObstacleHash(sc.Obstacles[:len(sc.Obstacles)-1]) == base {
		t.Fatal("ObstacleHash missed a removal")
	}

	// Concurrent Ensure on a mutated scenario must be race-free: readers
	// only ever fingerprint and, on mismatch, build private clones.
	cur := Ensure(sc)
	cur.Obstacles = append(cur.Obstacles, model.Obstacle{
		Shape: geom.RegularPolygon(geom.V(10, 10), 2, 5, 0),
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := Ensure(cur)
			if got == cur {
				t.Error("Ensure reused a stale index")
			}
		}()
	}
	wg.Wait()
}
