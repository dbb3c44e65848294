package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"hipo"
	"hipo/internal/corpus"
	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/model"
)

// Scenario tier of the solver workloads: expt.BenchScenario with 100
// obstacles and device multiplier 10 (100 devices, Table 2 hardware).
const (
	tierObstacles  = 100
	tierDeviceMult = 10
)

//go:embed refs.json
var refsJSON []byte

// refTable holds the reference placement digests of the two solver
// workloads' scenario pools, recorded by -record. Each pool is sorted by
// candidate-position count so that contiguous strata group scenarios of
// similar cost; a run draws one scenario per stratum.
type refTable struct {
	Schema string      `json:"schema"`
	Eps    float64     `json:"eps"`
	Cold   []coldRef   `json:"cold"`
	Mutate []mutateRef `json:"mutate"`
}

// coldRef is one cold-solve pool scenario: its BenchScenario seed, the
// candidate positions its solve discretizes (the stratum key) and the
// digest of its placement.
type coldRef struct {
	Seed      int64  `json:"seed"`
	Positions int    `json:"positions"`
	Digest    string `json:"digest"`
}

// mutateRef is one mutate-resolve pool scenario: the digest of its first
// (priming) solve and of the placement after each step of its trace.
type mutateRef struct {
	Seed      int64    `json:"seed"`
	Positions int      `json:"positions"`
	Prime     string   `json:"prime"`
	Steps     []string `json:"steps"`
}

const refsSchema = "perfbench-refs/v1"

func loadRefs() (*refTable, error) {
	var t refTable
	if err := json.Unmarshal(refsJSON, &t); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	if t.Schema != refsSchema || t.Eps != eps {
		return nil, fmt.Errorf("refs.json: schema %q eps %v, want %q eps %v", t.Schema, t.Eps, refsSchema, eps)
	}
	return &t, nil
}

// pickStrata draws k pool indices, one uniformly from each of k contiguous
// equal strata of a pool of size n, and returns them in a seeded order.
func pickStrata(seed int64, n, k int) []int {
	rng := rand.New(rand.NewSource(seed))
	size := n / k
	out := make([]int, k)
	for s := range out {
		out[s] = s*size + rng.Intn(size)
	}
	rng.Shuffle(k, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// benchScenario builds a tier scenario in both representations.
func benchScenario(seed int64) (*model.Scenario, *hipo.Scenario) {
	msc := expt.BenchScenario(seed, tierObstacles, tierDeviceMult)
	return msc, corpus.ToPublic(msc)
}

// digest fingerprints a placement bit for bit: every charger's type,
// position and orientation, then the utility.
func digest(chargers []hipo.PlacedCharger, utility float64) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(len(chargers)))
	for _, c := range chargers {
		put(uint64(c.Type))
		put(math.Float64bits(c.Pos.X))
		put(math.Float64bits(c.Pos.Y))
		put(math.Float64bits(c.Orient))
	}
	put(math.Float64bits(utility))
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// checkPlacement compares a solve's result with a reference digest.
func checkPlacement(p *hipo.Placement, err error, want string) error {
	if err != nil {
		return err
	}
	if got := digest(p.Chargers, p.Utility); got != want {
		return fmt.Errorf("placement digest %s, want %s", got, want)
	}
	return nil
}

// toModel converts a public scenario to the internal model, so the traced
// run can call the pipeline's modules directly on any workload input.
func toModel(s *hipo.Scenario) *model.Scenario {
	v := func(p hipo.Point) geom.Vec { return geom.V(p.X, p.Y) }
	sc := &model.Scenario{Region: model.Region{Min: v(s.Min), Max: v(s.Max)}}
	for _, c := range s.ChargerTypes {
		sc.ChargerTypes = append(sc.ChargerTypes, model.ChargerType{
			Name: c.Name, Alpha: c.Alpha, DMin: c.DMin, DMax: c.DMax, Count: c.Count,
		})
	}
	for _, d := range s.DeviceTypes {
		sc.DeviceTypes = append(sc.DeviceTypes, model.DeviceType{Name: d.Name, Alpha: d.Alpha, PTh: d.PTh})
	}
	for _, row := range s.Power {
		var r []model.PowerParams
		for _, p := range row {
			r = append(r, model.PowerParams{A: p.A, B: p.B})
		}
		sc.Power = append(sc.Power, r)
	}
	for _, d := range s.Devices {
		sc.Devices = append(sc.Devices, model.Device{Pos: v(d.Pos), Orient: d.Orient, Type: d.Type})
	}
	for _, o := range s.Obstacles {
		var vs []geom.Vec
		for _, p := range o.Vertices {
			vs = append(vs, v(p))
		}
		sc.Obstacles = append(sc.Obstacles, model.Obstacle{Shape: geom.Polygon{Vertices: vs}})
	}
	return sc
}

// planDigest hashes a JSON rendering of a round's op plan.
func planDigest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plans are plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
