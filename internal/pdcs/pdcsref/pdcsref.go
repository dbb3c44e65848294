// Package pdcsref preserves the seed PDCS extraction pipeline: a full
// device scan per position with one independent line-of-sight query per
// ray, fresh allocations, a per-position signature map, and the global
// dominance filter over the whole raw candidate stream. Production
// extraction (internal/pdcs) must match it bit for bit: the identity wall
// in internal/pdcs checks every production entry point against it, and
// TestExtractAllBenchTiers checks ExtractAll up to 200 obstacles × 200
// devices. Candidate positions come from internal/discretize, whose
// prefilters its own tests check.
package pdcsref

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"hipo/internal/discretize"
	"hipo/internal/geom"
	"hipo/internal/hipotrace"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/power"
	"hipo/internal/schedule"
	"hipo/internal/visindex"
)

// eligible is a device chargeable from a position once the charger
// orientation allows it.
type eligible struct {
	device int
	theta  float64 // direction from the charger position to the device
	pw     float64 // approximated charging power
}

// table holds the per-device-type power levels of one charger type.
type table struct {
	sc     *model.Scenario
	q      int
	levels []power.Levels
	tracer *hipotrace.Tracer
}

func newTable(sc *model.Scenario, q int, eps1 float64) *table {
	ct := sc.ChargerTypes[q]
	t := &table{sc: sc, q: q}
	for dt := range sc.DeviceTypes {
		pp := sc.Power[q][dt]
		t.levels = append(t.levels, power.NewLevels(pp.A, pp.B, ct.DMin, ct.DMax, eps1))
	}
	return t
}

// at is the seed eligibility scan: every device, in index order, through
// the exact range, receiving-sector, line-of-sight, and power predicates.
func (t *table) at(p geom.Vec) []eligible {
	sc := t.sc
	ct := sc.ChargerTypes[t.q]
	dmin2 := (ct.DMin - geom.Eps) * (ct.DMin - geom.Eps)
	if ct.DMin < geom.Eps {
		dmin2 = 0
	}
	dmax2 := (ct.DMax + geom.Eps) * (ct.DMax + geom.Eps)
	los := 0
	var out []eligible
	for j := range sc.Devices {
		dev := &sc.Devices[j]
		delta := dev.Pos.Sub(p)
		d2 := delta.Len2()
		if d2 < dmin2 || d2 > dmax2 {
			continue
		}
		d := math.Sqrt(d2)
		dt := &sc.DeviceTypes[dev.Type]
		if dt.Alpha < 2*math.Pi-geom.Eps {
			if d <= geom.Eps {
				continue
			}
			back := delta.Neg() // device → charger
			if back.Dot(geom.FromAngle(dev.Orient)) < d*math.Cos(dt.Alpha/2)-geom.Eps*math.Max(1, d) {
				continue
			}
		}
		los++
		if !sc.LineOfSight(p, dev.Pos) {
			continue
		}
		pw := t.levels[dev.Type].Approx(d)
		if pw <= 0 {
			continue
		}
		out = append(out, eligible{device: j, theta: delta.Angle(), pw: pw})
	}
	t.tracer.Add(hipotrace.CtrLOSQueries, int64(los))
	return out
}

// SweepPoint is the seed Algorithm 1: it rotates a charger of type q at
// point p through 360° and returns one candidate per practical dominating
// coverage set, with orientations at the critical positions where a device
// is about to fall out of the charging sector.
func SweepPoint(sc *model.Scenario, q int, p geom.Vec, eps1 float64) []pdcs.Candidate {
	return newTable(sc, q, eps1).sweep(p)
}

func (t *table) sweep(p geom.Vec) []pdcs.Candidate {
	el := t.at(p)
	if len(el) == 0 {
		return nil
	}
	ct := t.sc.ChargerTypes[t.q]
	if ct.Alpha >= 2*math.Pi-geom.Eps {
		// Omnidirectional charger: a single strategy covers everything.
		idx := make([]int, len(el))
		for i := range idx {
			idx[i] = i
		}
		return []pdcs.Candidate{t.candidate(p, 0, el, idx)}
	}
	half := ct.Alpha / 2

	var cands []pdcs.Candidate
	seen := make(map[string]bool)
	for _, e := range el {
		phi := geom.NormAngle(e.theta + half)
		var idx []int
		for i, f := range el {
			if geom.AbsAngleDiff(phi, f.theta) <= half+geom.Eps {
				idx = append(idx, i)
			}
		}
		sig := signature(el, idx)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		cands = append(cands, t.candidate(p, phi, el, idx))
	}
	return filterLocalDominated(cands)
}

func signature(el []eligible, idx []int) string {
	buf := make([]byte, 0, len(idx)*4)
	for _, i := range idx {
		d := el[i].device
		buf = append(buf, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
	}
	return string(buf)
}

func (t *table) candidate(p geom.Vec, phi float64, el []eligible, idx []int) pdcs.Candidate {
	c := pdcs.Candidate{S: model.Strategy{Pos: p, Orient: phi, Type: t.q}}
	c.Covers = make([]pdcs.DevPower, 0, len(idx))
	for _, i := range idx {
		c.Covers = append(c.Covers, pdcs.DevPower{Device: el[i].device, Power: el[i].pw})
	}
	sort.Slice(c.Covers, func(a, b int) bool { return c.Covers[a].Device < c.Covers[b].Device })
	return c
}

// filterLocalDominated removes candidates at a single position whose device
// sets are strict subsets of another candidate's (powers at one position are
// identical per device, so set inclusion is the whole story).
func filterLocalDominated(cands []pdcs.Candidate) []pdcs.Candidate {
	out := cands[:0]
	for i := range cands {
		dominated := false
		for j := range cands {
			// Signature dedup guarantees distinct sets, so a subset with
			// strictly smaller cardinality is a strict subset.
			if i != j && len(cands[i].Covers) < len(cands[j].Covers) &&
				coversSubset(cands[i].Covers, cands[j].Covers) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, cands[i])
		}
	}
	return out
}

// coversSubset reports whether a's device set is a subset of b's (both
// sorted by device).
func coversSubset(a, b []pdcs.DevPower) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i].Device < x.Device {
			i++
		}
		if i >= len(b) || b[i].Device != x.Device {
			return false
		}
	}
	return true
}

// Extract is the seed pdcs.Extract: one independent seed sweep per
// candidate position on cfg.Workers goroutines, full concatenation in
// position order, then the global dominance filter unless
// cfg.SkipDominanceFilter. It records pdcs.Extract's stage spans and
// counters.
func Extract(sc *model.Scenario, q int, cfg pdcs.Config) []pdcs.Candidate {
	sc = visindex.Ensure(sc)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tr := cfg.Tracer
	label := fmt.Sprintf("type-%d", q)
	endDisc := tr.StartStage(hipotrace.StageDiscretize, label)
	positions := discretize.CandidatePositions(sc, q, discretize.Config{Eps1: cfg.Eps1, Workers: workers, Tracer: tr})
	endDisc()

	endSweep := tr.StartStage(hipotrace.StagePDCS, label)
	defer endSweep()
	tr.Add(hipotrace.CtrCandidatePositions, int64(len(positions)))
	t := newTable(sc, q, cfg.Eps1)
	t.tracer = tr
	levels := 0
	for _, lv := range t.levels {
		levels += lv.NumBands()
	}
	tr.Add(hipotrace.CtrPowerLevels, int64(levels))
	perPos := schedule.RunPool(len(positions), workers, func(i int) []pdcs.Candidate {
		return t.sweep(positions[i])
	})
	var cands []pdcs.Candidate
	for _, cs := range perPos {
		cands = append(cands, cs...)
	}
	tr.Add(hipotrace.CtrCandidatesRaw, int64(len(cands)))
	if !cfg.SkipDominanceFilter {
		cands = pdcs.FilterDominated(cands, len(sc.Devices))
	}
	tr.Add(hipotrace.CtrCandidatesKept, int64(len(cands)))
	return cands
}

// ExtractAll runs Extract for every charger type.
func ExtractAll(sc *model.Scenario, cfg pdcs.Config) [][]pdcs.Candidate {
	out := make([][]pdcs.Candidate, len(sc.ChargerTypes))
	for q := range sc.ChargerTypes {
		out[q] = Extract(sc, q, cfg)
	}
	return out
}
