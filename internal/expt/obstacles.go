package expt

import (
	"math/rand"

	"hipo/internal/geom"
	"hipo/internal/model"
)

// RandomObstacles returns n seeded random star-shaped simple polygons, each
// fully inside the default AreaSide × AreaSide plane. Successive calls with
// the same rng state reproduce the same field; rejected candidates (those
// poking outside the plane) consume rng draws, so the stream position after
// the call is also deterministic.
func RandomObstacles(rng *rand.Rand, n int) []model.Obstacle {
	var out []model.Obstacle
	for len(out) < n {
		c := geom.V(5+rng.Float64()*30, 5+rng.Float64()*30)
		poly := geom.RandomSimplePolygon(rng, c, 1, 3, 3+rng.Intn(6))
		lo, hi := poly.BoundingBox()
		if lo.X < 0 || lo.Y < 0 || hi.X > AreaSide || hi.Y > AreaSide {
			continue
		}
		out = append(out, model.Obstacle{Shape: poly})
	}
	return out
}

// BenchScenario builds the Tables 2–4 hardware with nObstacles seeded
// random obstacles and a device population scaled by deviceMult
// (≤ 0 means the paper default). It is the deterministic scenario
// trajectory of perfbench's workloads and of the differential tests that
// sweep obstacle and device counts: one seed pins the whole scene.
func BenchScenario(seed int64, nObstacles, deviceMult int) *model.Scenario {
	if deviceMult <= 0 {
		deviceMult = DefaultDeviceMult
	}
	sc := BaseScenario()
	sc.Obstacles = nil
	rng := rand.New(rand.NewSource(seed))
	for q := range sc.ChargerTypes {
		sc.ChargerTypes[q].Count = initialChargerCounts[q] * DefaultChargerMult
	}
	sc.Obstacles = RandomObstacles(rng, nObstacles)
	counts := make([]int, len(sc.DeviceTypes))
	for t := range counts {
		counts[t] = initialDeviceCounts[t] * deviceMult
	}
	PlaceRandomDevices(sc, rng, counts)
	return sc
}
