// Tests of the sweep store's own invariants: no pointer in its bulk
// arrays, and contents that track a plain-map model under random
// insert, drop, device-removal and generation cycles.
package pdcs

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hipo/internal/geom"
	"hipo/internal/model"
)

// TestMemoIsPointerFree walks the element types of the store's bulk
// slices (a slice of slices is the arena's chunk directory: its chunks'
// element type is checked) and fails on any kind the garbage collector
// would have to scan, so a later field cannot quietly bring scanning back.
func TestMemoIsPointerFree(t *testing.T) {
	var scan func(path string, ty reflect.Type)
	scan = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s: element kind %s holds a pointer", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				scan(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			scan(path+"[]", ty.Elem())
		}
	}
	mt := reflect.TypeOf(Memo{})
	bulk := 0
	for i := 0; i < mt.NumField(); i++ {
		f := mt.Field(i)
		switch f.Type.Kind() {
		case reflect.Slice:
			elem := f.Type.Elem()
			if elem.Kind() == reflect.Slice {
				elem = elem.Elem()
			}
			scan(f.Name, elem)
			bulk++
		case reflect.Pointer, reflect.Map, reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("Memo.%s: field kind %s", f.Name, f.Type.Kind())
		}
	}
	if bulk == 0 {
		t.Fatal("no bulk slices found on Memo")
	}
}

// memoModel is the reference: position bits → candidates, with the
// positions marked since the last End.
type memoModel struct {
	held   map[[2]uint64][]Candidate
	marked map[[2]uint64]bool
}

func modelKey(p geom.Vec) [2]uint64 { return [2]uint64{math.Float64bits(p.X), math.Float64bits(p.Y)} }

func keyVec(k [2]uint64) geom.Vec {
	return geom.Vec{X: math.Float64frombits(k[0]), Y: math.Float64frombits(k[1])}
}

// TestMemoMatchesMapModel drives the store and the model through random
// insert, probe, DropIf, RemoveDevice and End cycles and compares their
// contents after every operation. After every End the held records and
// entries must stay within 2× the live ones.
func TestMemoMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m Memo
		ref := memoModel{held: map[[2]uint64][]Candidate{}, marked: map[[2]uint64]bool{}}
		devices := 40
		// A small position pool so stores hit held, dropped and expired
		// positions alike.
		pool := make([]geom.Vec, 300)
		for i := range pool {
			pool[i] = geom.V(rng.Float64()*50, rng.Float64()*50)
		}
		randCands := func(p geom.Vec) []Candidate {
			n := rng.Intn(4)
			cs := make([]Candidate, n)
			for i := range cs {
				var cv []DevPower
				for d := 0; d < devices; d++ {
					if rng.Intn(8) == 0 {
						cv = append(cv, DevPower{Device: d, Power: rng.Float64()})
					}
				}
				if rng.Intn(300) == 0 {
					// Longer than an arena chunk: gets a chunk of its own.
					cv = make([]DevPower, memoChunk+1+rng.Intn(5))
					for j := range cv {
						cv[j] = DevPower{Device: rng.Intn(devices), Power: float64(j)}
					}
				}
				cs[i] = Candidate{S: model.Strategy{Pos: p, Orient: rng.Float64(), Type: 0}, Covers: cv}
			}
			return cs
		}
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(100); {
			case r < 45: // a Find probe, then a serve on a hit or a store on a miss
				p := pool[rng.Intn(len(pool))]
				k := modelKey(p)
				_, held := ref.held[k]
				e := m.Find(p)
				if (e >= 0) != held {
					t.Fatalf("seed %d op %d: Find of %v hit=%v, model holds=%v", seed, op, p, e >= 0, held)
				}
				if held {
					m.serve(e)
					ref.marked[k] = true
				} else {
					cs := randCands(p)
					m.store(p, cs)
					ref.held[k] = deepCopy(cs)
					ref.marked[k] = true
				}
			case r < 55: // drop a random disk
				c, rad := pool[rng.Intn(len(pool))], rng.Float64()*10
				m.DropIf(func(p geom.Vec) bool { return p.Dist(c) <= rad })
				for k := range ref.held {
					if keyVec(k).Dist(c) <= rad {
						delete(ref.held, k)
						delete(ref.marked, k)
					}
				}
			case r < 60: // remove a device no held output covers
				j := rng.Intn(devices)
				covers := func(cs []Candidate) bool {
					for _, c := range cs {
						for _, dp := range c.Covers {
							if dp.Device == j {
								return true
							}
						}
					}
					return false
				}
				m.DropIf(func(p geom.Vec) bool { return covers(ref.held[modelKey(p)]) })
				for k, cs := range ref.held {
					if covers(cs) {
						delete(ref.held, k)
						delete(ref.marked, k)
					}
				}
				m.RemoveDevice(j)
				for _, cs := range ref.held {
					for _, c := range cs {
						for i := range c.Covers {
							if c.Covers[i].Device > j {
								c.Covers[i].Device--
							}
						}
					}
				}
				devices--
				if devices < 10 {
					devices = 40
				}
			default: // end the generation
				m.End()
				for k := range ref.held {
					if !ref.marked[k] {
						delete(ref.held, k)
					}
				}
				clear(ref.marked)
				if len(m.recs) > 2*m.liveRecs || len(m.entries) > 2*m.liveEnt {
					t.Fatalf("seed %d op %d: %d records and %d entries held for %d and %d live",
						seed, op, len(m.recs), len(m.entries), m.liveRecs, m.liveEnt)
				}
			}
			checkMemo(t, &m, ref, seed, op)
		}
	}
}

func deepCopy(cs []Candidate) []Candidate {
	out := make([]Candidate, len(cs))
	for i, c := range cs {
		out[i] = Candidate{S: c.S, Covers: slices.Clone(c.Covers)}
	}
	return out
}

// checkMemo compares the store with the model: the same held positions,
// and for each the same candidates bit for bit.
func checkMemo(t *testing.T, m *Memo, ref memoModel, seed int64, op int) {
	t.Helper()
	if m.Len() != len(ref.held) {
		t.Fatalf("seed %d op %d: store holds %d positions, model %d", seed, op, m.Len(), len(ref.held))
	}
	for k, want := range ref.held {
		p := keyVec(k)
		e := m.Find(p)
		if e < 0 {
			t.Fatalf("seed %d op %d: %v missing from the store", seed, op, p)
		}
		got := m.appendCandidates(nil, e, p, 0)
		if len(got) != len(want) {
			t.Fatalf("seed %d op %d: %v has %d records, model %d", seed, op, p, len(got), len(want))
		}
		for i := range want {
			if got[i].S != want[i].S || !slices.Equal(got[i].Covers, want[i].Covers) {
				t.Fatalf("seed %d op %d: %v record %d differs from the model", seed, op, p, i)
			}
		}
	}
}
