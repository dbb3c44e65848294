// Package visibility computes obstacle occlusion as seen from a device: the
// "holes" of Figure 2 — regions where a charger, although inside the
// device's power receiving area, cannot charge it because an obstacle blocks
// the line of sight. Holes are represented as angular shadow intervals plus
// the bounding rays through obstacle vertices; both feed candidate-position
// generation in internal/discretize.
//
// Every scenario-level query (Shadow, EventAngles, HoleRays) delegates to
// the scenario's attached model.VisibilityIndex when one provides the
// corresponding accelerated method (internal/visindex memoizes them per
// viewpoint); the *Of variants are the shared, index-free implementations,
// so both paths compute bit-for-bit identical results.
package visibility

import (
	"math"
	"sort"

	"hipo/internal/geom"
	"hipo/internal/model"
)

// shadowIndex, eventAngleIndex, and holeRayIndex are the optional
// accelerated views a model.VisibilityIndex may provide; see
// internal/visindex. Results returned through these interfaces are shared
// memo entries and must be treated as read-only by callers.
type shadowIndex interface {
	Shadow(p geom.Vec) *geom.IntervalSet
}

type eventAngleIndex interface {
	EventAngles(p geom.Vec) []float64
}

type holeRayIndex interface {
	HoleRays(p geom.Vec, rmax float64) []geom.Segment
}

// ShadowIntervals returns the union of angular intervals, as seen from p,
// that are occluded by the polygon. A direction θ is occluded if the ray
// from p in direction θ hits the polygon. If p is inside or on the polygon
// the full circle is returned.
func ShadowIntervals(p geom.Vec, poly geom.Polygon) *geom.IntervalSet {
	var s geom.IntervalSet
	if poly.ContainsPoint(p) {
		s.Add(geom.FullCircle())
		return &s
	}
	vs := poly.Vertices
	for i, a := range vs {
		// Edge (V[i], V[i+1 mod n]), in Edges' order, without building the
		// edge list.
		b := vs[(i+1)%len(vs)]
		ta := a.Sub(p).Angle()
		tb := b.Sub(p).Angle()
		// A segment viewed from an external point subtends < π; take the
		// short way around.
		d := geom.AngleDiff(ta, tb)
		if math.Abs(d) <= geom.Eps {
			continue // edge is radially aligned with p: zero angular width
		}
		if d > 0 {
			s.Add(geom.NewInterval(ta, ta+d))
		} else {
			s.Add(geom.NewInterval(tb, tb-d))
		}
	}
	return &s
}

// Shadow returns the combined occluded angular set from p over all
// obstacles in the scenario. With an attached index the result is a shared
// memo entry: callers must not mutate it.
func Shadow(sc *model.Scenario, p geom.Vec) *geom.IntervalSet {
	if ix, ok := sc.AttachedVisibilityIndex().(shadowIndex); ok {
		return ix.Shadow(p)
	}
	return ShadowOf(p, sc.Obstacles)
}

// ShadowOf is Shadow over an explicit obstacle list, ignoring any index.
func ShadowOf(p geom.Vec, obstacles []model.Obstacle) *geom.IntervalSet {
	var s geom.IntervalSet
	for _, o := range obstacles {
		for _, iv := range ShadowIntervals(p, o.Shape).Intervals() {
			s.Add(iv)
		}
	}
	return &s
}

// HoleRays returns, for each obstacle vertex visible from p, the ray from p
// through that vertex truncated at radius rmax: the straight boundaries of
// the holes of Figure 2. Vertices farther than rmax are skipped. Each ray
// starts at the vertex (the near end of the hole boundary) and ends at
// radius rmax from p. With an attached index the result is a shared memo
// entry: callers must not mutate it.
func HoleRays(sc *model.Scenario, p geom.Vec, rmax float64) []geom.Segment {
	if ix, ok := sc.AttachedVisibilityIndex().(holeRayIndex); ok {
		return ix.HoleRays(p, rmax)
	}
	return HoleRaysOf(p, rmax, sc.Obstacles, sc.LineOfSight)
}

// HoleRaysOf is HoleRays over an explicit obstacle list with an injected
// line-of-sight predicate (so the accelerated and brute-force paths share
// one implementation).
func HoleRaysOf(p geom.Vec, rmax float64, obstacles []model.Obstacle, los func(a, b geom.Vec) bool) []geom.Segment {
	var out []geom.Segment
	for _, o := range obstacles {
		for _, v := range o.Shape.Vertices {
			d := v.Dist(p)
			if d <= geom.Eps || d > rmax+geom.Eps {
				continue
			}
			if !los(p, v) {
				// The vertex itself is hidden behind something (possibly
				// this same polygon): it cannot bound a visible hole edge.
				continue
			}
			dir := v.Sub(p).Unit()
			end := p.Add(dir.Scale(rmax))
			if end.Dist(v) <= geom.Eps {
				continue
			}
			out = append(out, geom.Seg(v, end))
		}
	}
	return out
}

// EventAngles returns the sorted angular positions, as seen from p, at
// which the occlusion status can change: the boundary angles of all shadow
// intervals. These are event angles for the rotating sweep and for boundary
// sampling of feasible geometric areas. Coincident angles (obstacle
// vertices that line up radially from p, or shared vertices of adjacent
// obstacles) are deduplicated within geom.Eps. With an attached index the
// result is a shared memo entry: callers must not mutate it.
func EventAngles(sc *model.Scenario, p geom.Vec) []float64 {
	if ix, ok := sc.AttachedVisibilityIndex().(eventAngleIndex); ok {
		return ix.EventAngles(p)
	}
	return EventAnglesOf(p, sc.Obstacles)
}

// EventAnglesOf is EventAngles over an explicit obstacle list, ignoring any
// index.
func EventAnglesOf(p geom.Vec, obstacles []model.Obstacle) []float64 {
	var out []float64
	for _, o := range obstacles {
		for _, iv := range ShadowIntervals(p, o.Shape).Intervals() {
			out = append(out, geom.NormAngle(iv.Lo), geom.NormAngle(iv.Hi))
		}
	}
	sort.Float64s(out)
	return dedupSortedAngles(out)
}

// dedupSortedAngles collapses ascending angles closer than geom.Eps,
// including the pair that wraps across 0 ≡ 2π, keeping first occurrences.
func dedupSortedAngles(xs []float64) []float64 {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x-out[len(out)-1] > geom.Eps {
			out = append(out, x)
		}
	}
	if len(out) > 1 && out[0]+2*math.Pi-out[len(out)-1] <= geom.Eps {
		out = out[:len(out)-1]
	}
	return out
}

// Occluded reports whether the direction from p to q is blocked by any
// obstacle before reaching q (i.e. no line of sight).
func Occluded(sc *model.Scenario, p, q geom.Vec) bool {
	return !sc.LineOfSight(p, q)
}
