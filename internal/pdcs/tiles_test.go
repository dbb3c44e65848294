package pdcs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hipo/internal/discretize"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/visindex"
)

// tileTestScenario builds a 30×30 scenario with two charger types (the
// second with a d_min wide enough for the inner range gate to prune), three
// device types (omnidirectional, π/3 and π/9 receiving sectors) and 24
// random devices; walled adds 8 random rectangular obstacles.
func tileTestScenario(rng *rand.Rand, walled bool) *model.Scenario {
	sc := &model.Scenario{
		Region: model.Region{Min: geom.V(0, 0), Max: geom.V(30, 30)},
		ChargerTypes: []model.ChargerType{
			{Name: "c1", Alpha: math.Pi / 2, DMin: 0, DMax: 8, Count: 2},
			{Name: "c2", Alpha: math.Pi / 3, DMin: 2, DMax: 6, Count: 2},
		},
		DeviceTypes: []model.DeviceType{
			{Name: "omni", Alpha: 2 * math.Pi, PTh: 0.05},
			{Name: "wide", Alpha: math.Pi / 3, PTh: 0.05},
			{Name: "narrow", Alpha: math.Pi / 9, PTh: 0.05},
		},
		Power: [][]model.PowerParams{
			{{A: 100, B: 40}, {A: 100, B: 40}, {A: 100, B: 40}},
			{{A: 80, B: 30}, {A: 80, B: 30}, {A: 80, B: 30}},
		},
	}
	for i := 0; i < 24; i++ {
		sc.Devices = append(sc.Devices, model.Device{
			Pos:    geom.V(rng.Float64()*30, rng.Float64()*30),
			Orient: rng.Float64() * 2 * math.Pi,
			Type:   i % 3,
		})
	}
	if walled {
		for i := 0; i < 8; i++ {
			x, y := rng.Float64()*27, rng.Float64()*27
			sc.Obstacles = append(sc.Obstacles, model.Obstacle{
				Shape: geom.Rect(x, y, x+0.3+rng.Float64()*2.5, y+0.3+rng.Float64()*2.5),
			})
		}
	}
	return sc
}

// tightProbe is a position at which a device placed by addTightDevices
// passes tryDevice while its tile's prefilter gate has no slack beyond the
// tile pads.
type tightProbe struct {
	device int
	q      int
	p      geom.Vec
}

// addTightDevices appends, for charger type q with tile side size, devices
// placed where a tile prefilter gate is tight at a lattice corner K, and
// returns the probes that reach them:
//
//   - the outer range gate: an omnidirectional device on the diagonal of the
//     tile whose upper-right corner is K, just under d_max from K;
//   - the inner range gate: an omnidirectional device on the diagonal of the
//     tile whose lower-left corner is K, at d_min from K;
//   - the sector gate, once per directional device type: a device within
//     (d_min, d_max) of K, perpendicular to the diagonal of the
//     tile whose upper-right corner is K, facing so that K lies on the edge
//     of its receiving sector and the tile center outside it.
//
// For each probe the gate's own test passes only by the sum of its pad and
// the envelope's slack pad, so shrinking either past the other's margin
// prunes a device the exhaustive scan accepts.
func addTightDevices(sc *model.Scenario, q int, size float64, k geom.Vec) []tightProbe {
	ct := sc.ChargerTypes[q]
	K := geom.V(k.X*size, k.Y*size)
	in := geom.V(-1e-12, -1e-12) // into the tile whose upper-right corner is K
	diag := geom.V(1, 1).Scale(1 / math.Sqrt2)
	var probes []tightProbe
	add := func(pos geom.Vec, orient float64, typ int, p geom.Vec) {
		sc.Devices = append(sc.Devices, model.Device{Pos: pos, Orient: orient, Type: typ})
		probes = append(probes, tightProbe{device: len(sc.Devices) - 1, q: q, p: p})
	}
	add(K.Add(diag.Scale(ct.DMax-1e-10)), 0, 0, K.Add(in))
	if h := size * math.Sqrt2 / 2; ct.DMin > h {
		add(K.Add(diag.Scale(ct.DMin)), 0, 0, K.Sub(in))
	}
	perp := geom.V(1, -1).Scale(1 / math.Sqrt2)
	for typ := 1; typ < len(sc.DeviceTypes); typ++ {
		half := sc.DeviceTypes[typ].Alpha / 2
		r := ct.DMin + (ct.DMax-ct.DMin)*float64(typ)/float64(len(sc.DeviceTypes))
		add(K.Add(perp.Scale(r)), geom.NormAngle(3*math.Pi/4-half), typ, K.Add(in))
	}
	return probes
}

// exhaustiveAt is the reference for eligibleCache.at: every device through
// tryDevice, in index order.
func exhaustiveAt(c *eligibleCache, p geom.Vec) []eligible {
	dmin2, dmax2 := c.rangeGates()
	var out []eligible
	for j := range c.sc.Devices {
		out, _, _ = c.tryDevice(out, j, p, dmin2, dmax2, 0, 0)
	}
	return out
}

// tileProbes lists the positions the tile-prefilter differential checks
// for charger type q: every generated candidate position, every tile
// corner and edge midpoint ±1e-12, points at d_min and d_max ±geom.Eps
// from every device, points on the edges of every receiving sector, and
// points just outside the tiling box.
func tileProbes(sc *model.Scenario, q int, c *eligibleCache, cfg Config) []geom.Vec {
	ct := sc.ChargerTypes[q]
	probes := discretize.CandidatePositions(sc, q, discretize.Config{Eps1: cfg.Eps1})
	t := &c.tiles
	offs := []float64{-1e-12, 1e-12}
	for ty := t.ty0; ty < t.ty0+len(t.lists)/t.nx; ty++ {
		for tx := t.tx0; tx < t.tx0+t.nx; tx++ {
			x, y := float64(tx)*t.size, float64(ty)*t.size
			for _, pt := range []geom.Vec{geom.V(x, y), geom.V(x+t.size/2, y), geom.V(x, y+t.size/2)} {
				for _, dx := range offs {
					for _, dy := range offs {
						probes = append(probes, geom.V(pt.X+dx, pt.Y+dy))
					}
				}
			}
		}
	}
	radii := []float64{ct.DMin - geom.Eps, ct.DMin, ct.DMin + geom.Eps, ct.DMax - geom.Eps, ct.DMax, ct.DMax + geom.Eps}
	for _, dev := range sc.Devices {
		for i := 0; i < 48; i++ {
			u := geom.FromAngle(2 * math.Pi * float64(i) / 48)
			for _, r := range radii {
				if r > 0 {
					probes = append(probes, dev.Pos.Add(u.Scale(r)))
				}
			}
		}
		if a := sc.DeviceTypes[dev.Type].Alpha; a < 2*math.Pi {
			for _, phi := range []float64{dev.Orient - a/2, dev.Orient + a/2} {
				for _, dphi := range []float64{-1e-12, 0, 1e-12} {
					u := geom.FromAngle(phi + dphi)
					for i := 0; i <= 12; i++ {
						probes = append(probes, dev.Pos.Add(u.Scale(ct.DMin+(ct.DMax-ct.DMin)*float64(i)/12)))
					}
				}
			}
		}
		// Just outside the box when dev is extreme along an axis.
		r := ct.DMax + prunePad + 1e-12
		probes = append(probes, dev.Pos.Add(geom.V(-r, 0)), dev.Pos.Add(geom.V(r, 0)),
			dev.Pos.Add(geom.V(0, -r)), dev.Pos.Add(geom.V(0, r)))
	}
	for i := 0; i <= 64; i++ {
		f := float64(i) / 64
		x := t.lo.X + f*(t.hi.X-t.lo.X)
		y := t.lo.Y + f*(t.hi.Y-t.lo.Y)
		probes = append(probes,
			geom.V(x, t.lo.Y-1e-12), geom.V(x, t.hi.Y+1e-12),
			geom.V(t.lo.X-1e-12, y), geom.V(t.hi.X+1e-12, y))
	}
	return probes
}

// TestTilePrefilterMatchesExhaustiveScan checks that the tile-pruned
// eligibility scan lists exactly the devices an exhaustive tryDevice scan
// accepts, on an obstacle-free scenario, a walled one with the visibility
// index, and the same walled one under brute-force visibility, at the
// positions tileProbes lists — including the tight probes of
// addTightDevices, which must reach their devices for the test to pin the
// tile pads.
func TestTilePrefilterMatchesExhaustiveScan(t *testing.T) {
	for _, arm := range []struct {
		name   string
		walled bool
		brute  bool
	}{{"obstacle-free", false, false}, {"walled-index", true, false}, {"walled-brute", true, true}} {
		t.Run(arm.name, func(t *testing.T) {
			sc := tileTestScenario(rand.New(rand.NewSource(7)), arm.walled)
			cfg := Config{Eps1: 0.4}
			// Tight devices sit around lattice corners (5+8q, 5+8q) tiles
			// from the origin, at the tile side the untouched scenario gets.
			var tight []tightProbe
			sizes := make([]float64, len(sc.ChargerTypes))
			for q := range sc.ChargerTypes {
				sizes[q] = newEligibleCache(sc, q, cfg).tiles.size
				k := float64(5 + 8*q)
				tight = append(tight, addTightDevices(sc, q, sizes[q], geom.V(k, k))...)
			}
			if arm.brute {
				sc = bruteForce(sc)
			}
			sc = visindex.Ensure(sc)
			for q := range sc.ChargerTypes {
				c := newEligibleCache(sc, q, cfg)
				if c.tiles.size != sizes[q] {
					t.Fatalf("type %d: tile side moved from %v to %v with the tight devices", q, sizes[q], c.tiles.size)
				}
				if (c.certs != nil) != (arm.walled && !arm.brute) {
					t.Fatalf("type %d: certificates built = %v", q, c.certs != nil)
				}
				probes := tileProbes(sc, q, c, cfg)
				for _, tp := range tight {
					if tp.q == q {
						probes = append(probes, tp.p)
					}
				}
				bad := 0
				for _, p := range probes {
					got, want := c.at(p, nil), exhaustiveAt(c, p)
					if diff := diffEligible(got, want); diff != "" {
						if bad++; bad <= 5 {
							t.Errorf("type %d at %v: %s", q, p, diff)
						}
					}
				}
				if bad > 0 {
					t.Fatalf("type %d: %d of %d probes differ", q, bad, len(probes))
				}
				if arm.walled {
					continue // an obstacle may hide a tight device
				}
				for _, tp := range tight {
					if tp.q == q && !hasDevice(exhaustiveAt(c, tp.p), tp.device) {
						t.Errorf("type %d: tight probe %v does not reach device %d", q, tp.p, tp.device)
					}
				}
			}
		})
	}
}

func diffEligible(got, want []eligible) string {
	if len(got) != len(want) {
		return fmt.Sprintf("tile scan lists %d devices %v, exhaustive scan %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("entry %d: tile scan %+v, exhaustive scan %+v", i, got[i], want[i])
		}
	}
	return ""
}

func hasDevice(el []eligible, j int) bool {
	for _, e := range el {
		if e.device == j {
			return true
		}
	}
	return false
}
