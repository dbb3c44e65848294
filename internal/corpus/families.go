package corpus

import (
	"math"
	"math/rand"

	"hipo"
	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/model"
)

// smallBase returns the Tables 2–4 hardware with load-test-sized charger
// budgets: one charger per type instead of the paper's 3/6/9. Devices and
// obstacles are the callers' business.
func smallBase() *model.Scenario {
	sc := expt.BaseScenario()
	for q := range sc.ChargerTypes {
		sc.ChargerTypes[q].Count = 1
	}
	return sc
}

// deviceCounts spreads n devices round-robin over the scenario's device
// types, exercising the full heterogeneity of Table 3 even at small n.
func deviceCounts(sc *model.Scenario, n int) []int {
	counts := make([]int, len(sc.DeviceTypes))
	for i := 0; i < n; i++ {
		counts[i%len(counts)]++
	}
	return counts
}

// smallPopulation draws the per-item device population: 5–8 devices.
func smallPopulation(rng *rand.Rand) int { return 5 + rng.Intn(4) }

func buildSparseObstacles(rng *rand.Rand) *model.Scenario {
	sc := smallBase()
	sc.Obstacles = expt.RandomObstacles(rng, 2)
	expt.PlaceRandomDevices(sc, rng, deviceCounts(sc, smallPopulation(rng)))
	return sc
}

func buildDenseObstacles(rng *rand.Rand) *model.Scenario {
	sc := smallBase()
	sc.Obstacles = expt.RandomObstacles(rng, 10+rng.Intn(6))
	expt.PlaceRandomDevices(sc, rng, deviceCounts(sc, smallPopulation(rng)))
	return sc
}

// buildUniformDevices keeps the paper's fixed Figure 10(a) obstacle pair
// and draws a uniform device topology — the paper's own evaluation setting
// at load-test scale.
func buildUniformDevices(rng *rand.Rand) *model.Scenario {
	sc := smallBase()
	expt.PlaceRandomDevices(sc, rng, deviceCounts(sc, smallPopulation(rng)))
	return sc
}

func buildClusteredDevices(rng *rand.Rand) *model.Scenario {
	sc := smallBase()
	centers := make([]geom.Vec, 2)
	for i := range centers {
		for {
			c := geom.V(
				sc.Region.Min.X+5+rng.Float64()*(sc.Region.Width()-10),
				sc.Region.Min.Y+5+rng.Float64()*(sc.Region.Height()-10),
			)
			if sc.FeasiblePosition(c) {
				centers[i] = c
				break
			}
		}
	}
	placeSampled(sc, rng, smallPopulation(rng), func() geom.Vec {
		c := centers[rng.Intn(len(centers))]
		return c.Add(geom.V(rng.NormFloat64()*3, rng.NormFloat64()*3))
	})
	return sc
}

func buildCorridorDevices(rng *rand.Rand) *model.Scenario {
	sc := smallBase()
	midY := (sc.Region.Min.Y + sc.Region.Max.Y) / 2
	halfWidth := sc.Region.Height() / 8
	placeSampled(sc, rng, smallPopulation(rng), func() geom.Vec {
		return geom.V(
			sc.Region.Min.X+rng.Float64()*sc.Region.Width(),
			midY+(rng.Float64()*2-1)*halfWidth,
		)
	})
	return sc
}

// buildSingleType strips the hardware down to the single wide short-range
// charger type (Table 2's charger-3), homogeneous-fleet workloads.
func buildSingleType(rng *rand.Rand) *model.Scenario {
	sc := smallBase()
	sc.ChargerTypes = []model.ChargerType{sc.ChargerTypes[2]}
	sc.ChargerTypes[0].Count = 2
	sc.Power = [][]model.PowerParams{sc.Power[2]}
	expt.PlaceRandomDevices(sc, rng, deviceCounts(sc, smallPopulation(rng)))
	return sc
}

// buildMixedType doubles the narrow long-range type so the per-type
// partition matroid actually binds at small scale.
func buildMixedType(rng *rand.Rand) *model.Scenario {
	sc := smallBase()
	sc.ChargerTypes[0].Count = 2
	expt.PlaceRandomDevices(sc, rng, deviceCounts(sc, 6+rng.Intn(4)))
	return sc
}

// buildMutationBase is the mutation-trace family's base scenario: a
// mid-density obstacle field (structurally distinct from the sparse and
// dense families' counts) with a uniform device population. The family's
// mutation traces are drawn against it by mutationTrace.
func buildMutationBase(rng *rand.Rand) *model.Scenario {
	sc := smallBase()
	sc.Obstacles = expt.RandomObstacles(rng, 4)
	expt.PlaceRandomDevices(sc, rng, deviceCounts(sc, smallPopulation(rng)))
	return sc
}

// mutationTrace draws a short, always-valid mutation trace against sc: a
// device move, a device add, and a small obstacle placed clear of every
// device (including the moved and added ones). Replaying the trace through
// the scenario-mutation API is what the load harness measures.
func mutationTrace(rng *rand.Rand, sc *model.Scenario) []hipo.Mutation {
	feasible := func() geom.Vec {
		for {
			p := geom.V(
				sc.Region.Min.X+rng.Float64()*sc.Region.Width(),
				sc.Region.Min.Y+rng.Float64()*sc.Region.Height(),
			)
			if sc.FeasiblePosition(p) {
				return p
			}
		}
	}
	moved := feasible()
	added := feasible()
	muts := []hipo.Mutation{
		hipo.MutateMoveDevice(0, hipo.Point{X: moved.X, Y: moved.Y}, rng.Float64()*2*math.Pi),
		hipo.MutateAddDevice(hipo.Device{
			Pos:    hipo.Point{X: added.X, Y: added.Y},
			Orient: rng.Float64() * 2 * math.Pi,
			Type:   rng.Intn(len(sc.DeviceTypes)),
		}),
	}
	positions := []geom.Vec{moved, added}
	for _, d := range sc.Devices[1:] {
		positions = append(positions, d.Pos)
	}
	const side, margin = 2.0, 0.5
	for {
		c := geom.V(
			sc.Region.Min.X+1+rng.Float64()*(sc.Region.Width()-side-2),
			sc.Region.Min.Y+1+rng.Float64()*(sc.Region.Height()-side-2),
		)
		clear := true
		for _, p := range positions {
			if p.X > c.X-margin && p.X < c.X+side+margin &&
				p.Y > c.Y-margin && p.Y < c.Y+side+margin {
				clear = false
				break
			}
		}
		if clear {
			return append(muts, hipo.MutateAddObstacle(hipo.Obstacle{Vertices: []hipo.Point{
				{X: c.X, Y: c.Y}, {X: c.X + side, Y: c.Y},
				{X: c.X + side, Y: c.Y + side}, {X: c.X, Y: c.Y + side},
			}}))
		}
	}
}

// placeSampled appends n devices at sampled positions, rejecting samples
// outside the region or inside obstacles; types round-robin over the
// device table and orientations are uniform, as in expt.
func placeSampled(sc *model.Scenario, rng *rand.Rand, n int, sample func() geom.Vec) {
	for i := 0; i < n; i++ {
		for {
			pos := sample()
			if sc.Region.Contains(pos) && sc.FeasiblePosition(pos) {
				sc.Devices = append(sc.Devices, model.Device{
					Pos:    pos,
					Orient: rng.Float64() * 2 * math.Pi,
					Type:   i % len(sc.DeviceTypes),
				})
				break
			}
		}
	}
}

// ToPublic converts an internal scenario to the public schema, so corpus
// items carry the exact JSON the server consumes and their hashes match
// what hiposerve's cache computes (perfbench and internal/pdcs's identity
// tests reuse this for the same reason).
func ToPublic(sc *model.Scenario) *hipo.Scenario {
	out := &hipo.Scenario{
		Min: hipo.Point{X: sc.Region.Min.X, Y: sc.Region.Min.Y},
		Max: hipo.Point{X: sc.Region.Max.X, Y: sc.Region.Max.Y},
	}
	for _, c := range sc.ChargerTypes {
		out.ChargerTypes = append(out.ChargerTypes, hipo.ChargerSpec{
			Name: c.Name, Alpha: c.Alpha, DMin: c.DMin, DMax: c.DMax, Count: c.Count,
		})
	}
	for _, d := range sc.DeviceTypes {
		out.DeviceTypes = append(out.DeviceTypes, hipo.DeviceSpec{
			Name: d.Name, Alpha: d.Alpha, PTh: d.PTh,
		})
	}
	for _, row := range sc.Power {
		var r []hipo.PowerParams
		for _, p := range row {
			r = append(r, hipo.PowerParams{A: p.A, B: p.B})
		}
		out.Power = append(out.Power, r)
	}
	for _, d := range sc.Devices {
		out.Devices = append(out.Devices, hipo.Device{
			Pos: hipo.Point{X: d.Pos.X, Y: d.Pos.Y}, Orient: d.Orient, Type: d.Type,
		})
	}
	for _, o := range sc.Obstacles {
		var vs []hipo.Point
		for _, v := range o.Shape.Vertices {
			vs = append(vs, hipo.Point{X: v.X, Y: v.Y})
		}
		out.Obstacles = append(out.Obstacles, hipo.Obstacle{Vertices: vs})
	}
	return out
}
