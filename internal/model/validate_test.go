package model_test

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/model"
)

// TestValidateAllocationFree pins that Validate formats a path only on
// failure: validating a valid scenario allocates nothing, so every solve,
// which validates its scenario, pays no more than the checks themselves.
func TestValidateAllocationFree(t *testing.T) {
	sc := expt.BenchScenario(107, 100, 10)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = sc.Validate() }); n != 0 {
		t.Fatalf("Validate on a valid scenario allocates %v times per call, want 0", n)
	}
}

// fuzzBytes decodes fuzz input into scenario parts; an exhausted input
// reads as zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// num is NaN, +Inf, -Inf, or a value on a 0.25 grid in [-7.25, 55.75].
func (b *fuzzBytes) num() float64 {
	switch c := b.next(); c {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	default:
		return float64(int(c)-32) / 4
	}
}

func (b *fuzzBytes) count(max int) int { return int(b.next()) % (max + 1) }

// index ranges over -1..n, one past each end of a table of n entries.
func (b *fuzzBytes) index(n int) int { return int(b.next())%(n+2) - 1 }

func (b *fuzzBytes) vec() geom.Vec { return geom.V(b.num(), b.num()) }

// decodeScenario builds a scenario of ≤ 2 charger and device types, a
// power matrix of ≤ 3 possibly ragged rows, ≤ 8 devices and ≤ 3 obstacles
// of ≤ 5 vertices. Any number may be NaN or infinite and any type index out
// of range.
func decodeScenario(data []byte) *model.Scenario {
	b := fuzzBytes(data)
	sc := &model.Scenario{Region: model.Region{Min: b.vec(), Max: b.vec()}}
	for n := b.count(2); n > 0; n-- {
		sc.ChargerTypes = append(sc.ChargerTypes, model.ChargerType{
			Alpha: b.num(), DMin: b.num(), DMax: b.num(), Count: b.index(3)})
	}
	for n := b.count(2); n > 0; n-- {
		sc.DeviceTypes = append(sc.DeviceTypes, model.DeviceType{Alpha: b.num(), PTh: b.num()})
	}
	for n := b.count(3); n > 0; n-- {
		row := make([]model.PowerParams, b.count(3))
		for t := range row {
			row[t] = model.PowerParams{A: b.num(), B: b.num()}
		}
		sc.Power = append(sc.Power, row)
	}
	for n := b.count(8); n > 0; n-- {
		sc.Devices = append(sc.Devices, model.Device{
			Pos: b.vec(), Orient: b.num(), Type: b.index(len(sc.DeviceTypes))})
	}
	for n := b.count(3); n > 0; n-- {
		var o model.Obstacle
		for k := b.count(5); k > 0; k-- {
			o.Shape.Vertices = append(o.Shape.Vertices, b.vec())
		}
		sc.Obstacles = append(sc.Obstacles, o)
	}
	return sc
}

// validSeed decodes to a valid scenario: region (0,0)–(40,40), one charger
// and one device type, two devices, and one square obstacle.
var validSeed = []byte{
	32, 32, 192, 192, // region
	1, 38, 36, 64, 3, // charger type: α 1.5, d 1–8, count 2
	1, 44, 33, // device type: α 3, P_th 0.25
	1, 1, 232, 72, // power [[(50, 10)]]
	2, 72, 72, 32, 1, 112, 152, 36, 1, // devices (10,10) and (20,30)
	1, 4, 132, 132, 152, 132, 152, 152, 132, 152, // square (25,25)–(30,30)
}

var segment = regexp.MustCompile(`^([a-z_]+)((?:\[-?\d+\])*)$`)

// checkPathIndexes fails unless every index in path addresses an existing
// entry of sc: the path must name a field the scenario has.
func checkPathIndexes(t *testing.T, sc *model.Scenario, path string) {
	t.Helper()
	vertices := -1 // vertex count of the obstacle the path entered
	for _, seg := range strings.Split(path, ".") {
		m := segment.FindStringSubmatch(seg)
		if m == nil {
			t.Fatalf("malformed path %q", path)
		}
		var idx []int
		for _, s := range strings.Split(strings.Trim(m[2], "[]"), "][") {
			if s != "" {
				i, _ := strconv.Atoi(s)
				idx = append(idx, i)
			}
		}
		var lens []int
		switch m[1] {
		case "charger_types":
			lens = []int{len(sc.ChargerTypes)}
		case "device_types":
			lens = []int{len(sc.DeviceTypes)}
		case "devices":
			lens = []int{len(sc.Devices)}
		case "obstacles":
			lens = []int{len(sc.Obstacles)}
		case "vertices":
			lens = []int{vertices}
		case "power":
			lens = []int{len(sc.Power)}
			if len(idx) > 0 && idx[0] >= 0 && idx[0] < len(sc.Power) {
				lens = append(lens, len(sc.Power[idx[0]]))
			}
		}
		if len(idx) > len(lens) {
			t.Fatalf("path %q: %s takes %d indexes, got %d", path, m[1], len(lens), len(idx))
		}
		for k, i := range idx {
			if i < 0 || i >= lens[k] {
				t.Fatalf("path %q: index %d of %s out of range [0, %d)", path, i, m[1], lens[k])
			}
		}
		if m[1] == "obstacles" && len(idx) == 1 {
			vertices = len(sc.Obstacles[idx[0]].Shape.Vertices)
		}
	}
}

// FuzzValidate decodes bytes into small scenarios with NaN/Inf values,
// out-of-range type indexes and ragged power rows, and asserts that
// Validate never panics, that every rejection is a bare *model.FieldError,
// and that every index in its path addresses an entry the scenario has.
func FuzzValidate(f *testing.F) {
	if err := decodeScenario(validSeed).Validate(); err != nil {
		f.Fatalf("validSeed does not decode to a valid scenario: %v", err)
	}
	f.Add(validSeed)
	f.Add([]byte{})
	for _, at := range []int{0, 5, 10, 14, 18, 20, 24, 29} {
		seed := append([]byte(nil), validSeed...)
		seed[at] = 0 // NaN
		f.Add(seed)
	}
	ragged := append([]byte(nil), validSeed...)
	ragged[12], ragged[13] = 2, 0 // two power rows, the first empty
	f.Add(ragged)
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeScenario(data)
		err := sc.Validate()
		if err == nil {
			return
		}
		fe, ok := err.(*model.FieldError)
		if !ok {
			t.Fatalf("rejection %v is a %T, want *model.FieldError", err, err)
		}
		checkPathIndexes(t, sc, fe.Path)
	})
}
