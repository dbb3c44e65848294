package visindex

import (
	"math/rand"
	"testing"

	"hipo/internal/geom"
	"hipo/internal/model"
)

func benchQueries(seed int64, n int) []geom.Segment {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]geom.Segment, n)
	for i := range qs {
		qs[i] = geom.Seg(randomPoint(rng), randomPoint(rng))
	}
	return qs
}

func benchmarkLOS(b *testing.B, nObs int, indexed bool) {
	sc := randomScenario(99, nObs)
	ix := New(sc)
	qs := benchQueries(7, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if indexed {
			ix.LineOfSight(q.A, q.B)
		} else {
			model.BruteForce(sc.Obstacles).LineOfSight(q.A, q.B)
		}
	}
}

func BenchmarkLineOfSightBrute10(b *testing.B)    { benchmarkLOS(b, 10, false) }
func BenchmarkLineOfSightIndexed10(b *testing.B)  { benchmarkLOS(b, 10, true) }
func BenchmarkLineOfSightBrute50(b *testing.B)    { benchmarkLOS(b, 50, false) }
func BenchmarkLineOfSightIndexed50(b *testing.B)  { benchmarkLOS(b, 50, true) }
func BenchmarkLineOfSightBrute200(b *testing.B)   { benchmarkLOS(b, 200, false) }
func BenchmarkLineOfSightIndexed200(b *testing.B) { benchmarkLOS(b, 200, true) }

func BenchmarkNew50(b *testing.B) {
	sc := randomScenario(99, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(sc)
	}
}
