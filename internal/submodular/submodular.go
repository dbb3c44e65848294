// Package submodular implements monotone submodular maximization under a
// partition matroid constraint (Section 4.3): the paper's per-type greedy
// (Algorithm 3), a global partition-matroid greedy, a lazy (CELF) greedy
// that exploits submodularity to skip stale evaluations, and a budgeted
// cost-benefit greedy used by the deployment-cost extension of Section 8.2.
//
// The objective has the separable concave-of-additive form
//
//	f(X) = Σ_j w_j · φ_j( Σ_{e∈X} p_{e,j} )
//
// with φ_j nondecreasing concave and φ_j(0) = 0, which covers the charging
// utility of Eq. (3) (φ = min(x/P_th, 1)) and the proportional-fairness
// objective of Eq. (16) (φ = log(1+min(x/P_th,1))). Lemma 4.6 shows any such
// f is monotone submodular.
package submodular

import (
	"container/heap"
	"math"

	"hipo/internal/hipotrace"
)

// Entry is one coordinate of an element's sparse contribution vector.
type Entry struct {
	Device int
	Power  float64
}

// Element is a ground-set member: it belongs to one partition (charger
// type) and adds Power to each listed device when selected.
type Element struct {
	Part   int
	Covers []Entry
}

// Scalar is a nondecreasing concave utility curve with φ(0) = 0.
type Scalar func(x float64) float64

// Instance is a submodular maximization instance over a partition matroid.
type Instance struct {
	// Phi[j] is device j's utility curve; Weight[j] its objective weight.
	Phi    []Scalar
	Weight []float64
	// Elements is the ground set.
	Elements []Element
	// Budget[q] is the partition matroid capacity of part q.
	Budget []int
	// AllowRepeat permits selecting the same element several times (each
	// copy consuming one unit of its partition's budget). Physically, two
	// chargers at the same position and orientation are legitimate — the
	// paper's Figure 10(d) discussion notes random baselines do exactly
	// that — and dominance filtering can collapse a whole feasible region
	// to a single representative strategy, so forbidding repeats would
	// strand budget the continuous problem could spend.
	AllowRepeat bool
	// Tracer, when non-nil, receives gain-evaluation and lazy-heap counters.
	// Greedy inner loops count into plain locals and flush once per run, so
	// a nil Tracer adds no allocation or atomic on the hot path (guarded by
	// the AllocsPerRun test in this package and BenchmarkSolveNilTracer).
	Tracer *hipotrace.Tracer
}

// state tracks accumulated per-device power during a greedy run.
type state struct {
	inst *Instance
	cur  []float64 // accumulated power per device
	val  float64   // current objective value
}

func newState(inst *Instance) *state {
	return &state{inst: inst, cur: make([]float64, len(inst.Phi))}
}

// gain returns the marginal objective gain of adding element e.
func (st *state) gain(e int) float64 {
	g := 0.0
	for _, en := range st.inst.Elements[e].Covers {
		j := en.Device
		phi := st.inst.Phi[j]
		//hipo:pure Phi entries are pure scalar maps (UtilityPhi, LogUtilityPhi); the Instance contract forbids effectful utilities
		g += st.inst.Weight[j] * (phi(st.cur[j]+en.Power) - phi(st.cur[j]))
	}
	return g
}

// add commits element e.
func (st *state) add(e int) {
	st.val += st.gain(e)
	for _, en := range st.inst.Elements[e].Covers {
		st.cur[en.Device] += en.Power
	}
}

// Result is the outcome of a maximization run.
type Result struct {
	Selected []int   // indices into Instance.Elements, in selection order
	Value    float64 // objective value of the selection
}

// GreedyPerType is Algorithm 3 verbatim: iterate the partitions in order
// and, for each, repeatedly select the element of that partition with the
// largest marginal gain with respect to the global state, until the
// partition budget is exhausted.
func GreedyPerType(inst *Instance) Result {
	st := newState(inst)
	used := make([]bool, len(inst.Elements))
	var sel []int
	evals := int64(0)
	defer func() { inst.Tracer.Add(hipotrace.CtrGainEvals, evals) }()
	for q := range inst.Budget {
		for k := 0; k < inst.Budget[q]; k++ {
			best, bestGain := -1, 0.0
			for e := range inst.Elements {
				if (used[e] && !inst.AllowRepeat) || inst.Elements[e].Part != q {
					continue
				}
				evals++
				if g := st.gain(e); g > bestGain {
					best, bestGain = e, g
				}
			}
			if best < 0 {
				break // no remaining element of this part adds value
			}
			used[best] = true
			st.add(best)
			sel = append(sel, best)
		}
	}
	return Result{Selected: sel, Value: st.val}
}

// GreedyGlobal selects, at every step, the feasible element (its partition
// still has budget) with the largest marginal gain, across all partitions.
// This is the classic 1/2-approximate greedy for a partition matroid.
func GreedyGlobal(inst *Instance) Result {
	st := newState(inst)
	used := make([]bool, len(inst.Elements))
	remaining := append([]int(nil), inst.Budget...)
	total := 0
	for _, b := range remaining {
		total += b
	}
	var sel []int
	evals := int64(0)
	defer func() { inst.Tracer.Add(hipotrace.CtrGainEvals, evals) }()
	for len(sel) < total {
		best, bestGain := -1, 0.0
		for e := range inst.Elements {
			if (used[e] && !inst.AllowRepeat) || remaining[inst.Elements[e].Part] == 0 {
				continue
			}
			evals++
			if g := st.gain(e); g > bestGain {
				best, bestGain = e, g
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		remaining[inst.Elements[best].Part]--
		st.add(best)
		sel = append(sel, best)
	}
	return Result{Selected: sel, Value: st.val}
}

// lazyItem is a heap entry for CELF: a cached (possibly stale) upper bound
// on the element's marginal gain.
type lazyItem struct {
	e     int
	gain  float64
	round int // selection round at which gain was computed
}

type lazyHeap []lazyItem

func (h lazyHeap) Len() int           { return len(h) }
func (h lazyHeap) Less(i, j int) bool { return h[i].gain > h[j].gain }
func (h lazyHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *lazyHeap) Push(x any)        { *h = append(*h, x.(lazyItem)) }
func (h *lazyHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// GreedyLazy implements the CELF accelerated greedy: submodularity
// guarantees marginal gains only shrink, so an element whose cached gain is
// still the largest after re-evaluation is optimal for this round without
// touching the rest of the heap. Returns the same selection as GreedyGlobal
// up to ties.
//
//hipo:hotpath
func GreedyLazy(inst *Instance) Result {
	st := newState(inst)
	remaining := append([]int(nil), inst.Budget...)
	total := 0
	for _, b := range remaining {
		total += b
	}

	evals, reevals, freshHits := int64(0), int64(0), int64(0)
	defer func() {
		inst.Tracer.Add(hipotrace.CtrGainEvals, evals)
		inst.Tracer.Add(hipotrace.CtrLazyReevals, reevals)
		inst.Tracer.Add(hipotrace.CtrLazyFreshHits, freshHits)
	}()

	h := make(lazyHeap, 0, len(inst.Elements))
	for e := range inst.Elements {
		evals++
		if g := st.gain(e); g > 0 {
			h = append(h, lazyItem{e: e, gain: g, round: 0})
		}
	}
	heap.Init(&h)

	var sel []int
	round := 0
	var deferred []lazyItem // elements of saturated parts, kept aside
	for len(sel) < total && h.Len() > 0 {
		it := heap.Pop(&h).(lazyItem)
		if remaining[inst.Elements[it.e].Part] == 0 {
			deferred = append(deferred, it)
			continue
		}
		if it.round != round {
			evals++
			reevals++
			it.gain = st.gain(it.e)
			it.round = round
			if it.gain <= 0 {
				continue
			}
			if h.Len() > 0 && h[0].gain > it.gain {
				heap.Push(&h, it)
				continue
			}
		} else {
			freshHits++
		}
		// it is fresh and maximal: select.
		st.add(it.e)
		remaining[inst.Elements[it.e].Part]--
		sel = append(sel, it.e)
		round++
		if inst.AllowRepeat {
			// A selected element may be chosen again (another charger on an
			// equivalent strategy); requeue it with its post-selection gain.
			evals++
			if g := st.gain(it.e); g > 0 {
				heap.Push(&h, lazyItem{e: it.e, gain: g, round: round})
			}
		}
		// A part just ran out of budget: deferred items never return, but
		// items for other parts pushed aside earlier must.
		if len(deferred) > 0 {
			keep := deferred[:0]
			for _, d := range deferred {
				if remaining[inst.Elements[d.e].Part] > 0 {
					heap.Push(&h, d)
				} else {
					keep = append(keep, d)
				}
			}
			deferred = keep
		}
	}
	return Result{Selected: sel, Value: st.val}
}

// Evaluate computes f(X) for an arbitrary selection.
func Evaluate(inst *Instance, selected []int) float64 {
	st := newState(inst)
	for _, e := range selected {
		st.add(e)
	}
	return st.val
}

// BudgetedGreedy maximizes f subject to Σ cost ≤ budget (knapsack
// constraint, Section 8.2) using the cost-benefit greedy plus best-single-
// element rule, which guarantees a (1−1/e)/2 factor; the paper's reference
// [46] achieves ½(1−1/e) for the routing-constrained variant.
func BudgetedGreedy(inst *Instance, cost []float64, budget float64) Result {
	st := newState(inst)
	used := make([]bool, len(inst.Elements))
	spent := 0.0
	var sel []int
	for {
		best, bestRatio := -1, 0.0
		for e := range inst.Elements {
			if used[e] || spent+cost[e] > budget+1e-12 {
				continue
			}
			g := st.gain(e)
			if g <= 0 {
				continue
			}
			r := g
			if cost[e] > 0 {
				r = g / cost[e]
			} else {
				r = math.Inf(1)
			}
			if r > bestRatio {
				best, bestRatio = e, r
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		spent += cost[best]
		st.add(best)
		sel = append(sel, best)
	}
	ratioVal := st.val

	// Best single affordable element.
	bestSingle, bestVal := -1, 0.0
	for e := range inst.Elements {
		if cost[e] > budget+1e-12 {
			continue
		}
		if v := Evaluate(inst, []int{e}); v > bestVal {
			bestSingle, bestVal = e, v
		}
	}
	if bestSingle >= 0 && bestVal > ratioVal {
		return Result{Selected: []int{bestSingle}, Value: bestVal}
	}
	return Result{Selected: sel, Value: ratioVal}
}

// UtilityPhi returns the charging-utility curve of Eq. (3) as a Scalar:
// min(x/pth, 1).
func UtilityPhi(pth float64) Scalar {
	return func(x float64) float64 {
		if x >= pth {
			return 1
		}
		if x <= 0 {
			return 0
		}
		return x / pth
	}
}

// LogUtilityPhi returns the proportional-fairness curve of Eq. (16):
// log(1 + min(x/pth, 1)).
func LogUtilityPhi(pth float64) Scalar {
	u := UtilityPhi(pth)
	return func(x float64) float64 { return math.Log1p(u(x)) }
}
