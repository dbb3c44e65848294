// Package cells materializes the feasible geometric areas of Section 4.1.2
// for a single device: the sector-ring receiving area of Figure 1, cut by
// the distance levels of Lemma 4.1 into bands, and by obstacle occlusion
// into visible/invisible angular spans. A charger anywhere inside one cell
// provides the device the same constant approximated charging power — the
// defining property of a feasible geometric area.
//
// The decomposition is exact: band boundaries come from the closed-form
// level radii, and occlusion boundaries from clipping obstacle edges to the
// band's outer circle (so the angular events are obstacle vertices and
// edge/circle intersection points, the same critical angles the paper's
// construction uses). Cells are used to validate candidate generation, to
// verify the region-count bound of Lemma 4.4 empirically, and for
// feasible-area statistics.
package cells

import (
	"math"

	"hipo/internal/discretize"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/power"
	"hipo/internal/radial"
)

// Cell is one feasible geometric area of a device: chargers of the cell's
// type placed anywhere inside deliver the same approximated power.
type Cell struct {
	// Device and Type identify whose receiving area this cell belongs to.
	Device, Type int
	// Band is the distance-level band index; the radial extent is
	// (R0, R1].
	Band   int
	R0, R1 float64
	// Arc is the angular extent (as seen from the device).
	Arc geom.Interval
	// Power is the constant approximated charging power of the cell.
	Power float64
	// Partial marks cells whose outer radial boundary is the occlusion
	// profile ρ(θ) rather than R1: the region is {(θ, r) : θ ∈ Arc,
	// R0 < r ≤ min(R1, ρ(θ))} with ρ(θ) < R1 somewhere on the arc.
	Partial bool
}

// Contains reports whether the point p (with the device's occlusion profile
// prof) lies in the cell.
func (c *Cell) Contains(dev geom.Vec, prof *radial.Profile, p geom.Vec) bool {
	delta := p.Sub(dev)
	r := delta.Len()
	if r <= c.R0+geom.Eps || r > c.R1+geom.Eps {
		return false
	}
	theta := delta.Angle()
	if !c.Arc.Contains(theta) {
		return false
	}
	return prof.Visible(theta, r)
}

// DeviceCells computes the feasible geometric areas of device j for charger
// type q under approximation parameter eps1.
func DeviceCells(sc *model.Scenario, q, j int, eps1 float64) []Cell {
	dev := sc.Devices[j]
	dt := sc.DeviceTypes[dev.Type]
	ct := sc.ChargerTypes[q]
	pp := sc.Power[q][dev.Type]
	lv := power.NewLevels(pp.A, pp.B, ct.DMin, ct.DMax, eps1)
	radii := discretize.Radii(sc, q, j, eps1)

	// The receiving interval.
	var recv geom.Interval
	if dt.Alpha >= 2*math.Pi-geom.Eps {
		recv = geom.FullCircle()
	} else {
		recv = geom.NewInterval(dev.Orient-dt.Alpha/2, dev.Orient+dt.Alpha/2)
	}

	var out []Cell
	for band := 1; band < len(radii); band++ {
		r0, r1 := radii[band-1], radii[band]
		pw := lv.Approx((r0 + r1) / 2)
		// Occlusion within this band: directions whose first obstacle hit
		// is before the band's outer radius. "Fully visible" spans become
		// full cells; spans where ρ crosses the band become partial cells.
		blockedOuter := shadowWithin(sc, dev.Pos, r1) // ρ(θ) < r1
		blockedInner := shadowWithin(sc, dev.Pos, r0) // ρ(θ) ≤ r0 (no room at all)

		for _, span := range intersectIntervals(recv, blockedOuter.Complement()) {
			out = append(out, Cell{
				Device: j, Type: q, Band: band, R0: r0, R1: r1,
				Arc: span, Power: pw,
			})
		}
		// Partial cells: visible beyond r0 but occluded before r1.
		for _, shadow := range blockedOuter.Intervals() {
			for _, span := range intersectIntervals(recv, []geom.Interval{shadow}) {
				// Remove the completely hopeless part (ρ ≤ r0).
				for _, usable := range subtractIntervals(span, blockedInner.Intervals()) {
					if usable.Width() <= 1e-9 {
						continue
					}
					out = append(out, Cell{
						Device: j, Type: q, Band: band, R0: r0, R1: r1,
						Arc: usable, Power: pw, Partial: true,
					})
				}
			}
		}
	}
	return out
}

// shadowWithin returns the angular set whose rays from origin hit an
// obstacle strictly within distance r: the shadows cast by the obstacle
// portions clipped to the disk of radius r.
func shadowWithin(sc *model.Scenario, origin geom.Vec, r float64) *geom.IntervalSet {
	var s geom.IntervalSet
	disk := geom.Circle{C: origin, R: r}
	for _, o := range sc.Obstacles {
		if o.Shape.ContainsPoint(origin) {
			s.Add(geom.FullCircle())
			return &s
		}
		for _, e := range o.Shape.Edges() {
			seg, ok := clipSegmentToDisk(e, disk)
			if !ok {
				continue
			}
			ta := seg.A.Sub(origin).Angle()
			tb := seg.B.Sub(origin).Angle()
			d := geom.AngleDiff(ta, tb)
			if math.Abs(d) <= geom.Eps {
				continue
			}
			if d > 0 {
				s.Add(geom.NewInterval(ta, ta+d))
			} else {
				s.Add(geom.NewInterval(tb, tb-d))
			}
		}
	}
	return &s
}

// clipSegmentToDisk returns the part of seg inside the closed disk, if any.
func clipSegmentToDisk(seg geom.Segment, disk geom.Circle) (geom.Segment, bool) {
	aIn := disk.ContainsPoint(seg.A)
	bIn := disk.ContainsPoint(seg.B)
	if aIn && bIn {
		return seg, true
	}
	pts, n := geom.CircleSegmentIntersections(disk, seg)
	switch {
	case aIn && n >= 1:
		return geom.Seg(seg.A, pts[0]), true
	case bIn && n >= 1:
		return geom.Seg(pts[0], seg.B), true
	case n >= 2:
		return geom.Seg(pts[0], pts[1]), true
	default:
		return geom.Segment{}, false
	}
}

// intersectIntervals returns the parts of each candidate interval that lie
// inside base.
func intersectIntervals(base geom.Interval, cands []geom.Interval) []geom.Interval {
	var out []geom.Interval
	for _, c := range cands {
		for _, piece := range intersectPair(base, c) {
			if piece.Width() > 1e-12 {
				out = append(out, piece)
			}
		}
	}
	return out
}

// intersectPair intersects two circular intervals, yielding 0–2 pieces.
func intersectPair(a, b geom.Interval) []geom.Interval {
	if a.Width() >= 2*math.Pi-geom.Eps {
		return []geom.Interval{b}
	}
	if b.Width() >= 2*math.Pi-geom.Eps {
		return []geom.Interval{a}
	}
	var out []geom.Interval
	// Unroll b into the linear frame of a (a.Lo ∈ [0,2π), a.Hi ≤ a.Lo+2π).
	for _, shift := range []float64{-2 * math.Pi, 0, 2 * math.Pi} {
		lo := math.Max(a.Lo, b.Lo+shift)
		hi := math.Min(a.Hi, b.Hi+shift)
		if hi > lo+1e-12 {
			out = append(out, geom.Interval{Lo: lo, Hi: hi})
		}
	}
	return out
}

// subtractIntervals removes the given intervals from base, returning the
// remaining pieces.
func subtractIntervals(base geom.Interval, remove []geom.Interval) []geom.Interval {
	pieces := []geom.Interval{base}
	for _, r := range remove {
		var next []geom.Interval
		for _, p := range pieces {
			next = append(next, subtractPair(p, r)...)
		}
		pieces = next
	}
	return pieces
}

func subtractPair(a, b geom.Interval) []geom.Interval {
	inter := intersectPair(a, b)
	if len(inter) == 0 {
		return []geom.Interval{a}
	}
	// Collect the kept sub-pieces of a by cutting out each intersection.
	pieces := []geom.Interval{a}
	for _, cut := range inter {
		var next []geom.Interval
		for _, p := range pieces {
			if cut.Hi <= p.Lo+1e-12 || cut.Lo >= p.Hi-1e-12 {
				next = append(next, p)
				continue
			}
			if cut.Lo > p.Lo+1e-12 {
				next = append(next, geom.Interval{Lo: p.Lo, Hi: cut.Lo})
			}
			if cut.Hi < p.Hi-1e-12 {
				next = append(next, geom.Interval{Lo: cut.Hi, Hi: p.Hi})
			}
		}
		pieces = next
	}
	return pieces
}

// CountCells returns the total number of feasible geometric areas of all
// devices for charger type q — the quantity bounded by Lemma 4.4.
func CountCells(sc *model.Scenario, q int, eps1 float64) int {
	n := 0
	for j := range sc.Devices {
		n += len(DeviceCells(sc, q, j, eps1))
	}
	return n
}

// Lemma44Bound evaluates the paper's O-bound on the number of feasible
// geometric areas per charger type, O(No²·ε₁⁻²·Nh²·c²), with all constants
// set to 1 — useful only for scaling comparisons in tests and benches.
func Lemma44Bound(sc *model.Scenario, eps1 float64) float64 {
	no := float64(len(sc.Devices))
	nh := math.Max(1, float64(len(sc.Obstacles)))
	c := 1.0
	for _, o := range sc.Obstacles {
		c = math.Max(c, float64(len(o.Shape.Vertices)))
	}
	if eps1 <= 0 {
		// The bound diverges as ε₁ → 0; an invalid parameter means "no bound".
		return math.Inf(1)
	}
	return no * no / (eps1 * eps1) * nh * nh * c * c
}

// Area returns the cell's exact area: closed-form for full cells, and the
// radial integral ∫ ½((min(R1, ρ(θ)))² − R0²)⁺ dθ over the arc for partial
// cells (prof supplies ρ).
func (c *Cell) Area(prof *radial.Profile) float64 {
	if !c.Partial {
		return c.Arc.Width() / 2 * (c.R1*c.R1 - c.R0*c.R0)
	}
	return prof.FeasibleArea(c.Arc.Lo, c.Arc.Hi, c.R0, c.R1)
}

// TotalArea sums the areas of all feasible cells of device j under charger
// type q — by construction this equals the exact feasible placement area of
// radial.FeasibleAreaForDevice.
func TotalArea(sc *model.Scenario, q, j int, eps1 float64) float64 {
	prof := radial.NewProfile(sc, sc.Devices[j].Pos)
	total := 0.0
	for _, c := range DeviceCells(sc, q, j, eps1) {
		total += c.Area(prof)
	}
	return total
}
