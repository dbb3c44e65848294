// Package schedule provides the parallel-machine substrate of the
// distributed HIPO algorithm (Section 5): the Longest Processing Time (LPT)
// list-scheduling rule of Graham with its 4/3 makespan guarantee, a makespan
// simulator for "what if we had m machines" analyses (Figure 12 plots
// normalized times, so simulated makespan over measured task costs
// reproduces the curves), and a real goroutine worker pool for actually
// executing tasks in parallel.
package schedule

import (
	"sort"
	"sync"
)

// Task is a schedulable unit with a measured or estimated duration, in
// arbitrary consistent units.
type Task struct {
	ID       int
	Duration float64
}

// Assignment maps tasks to machines.
type Assignment struct {
	// Machine[i] is the machine index the i-th input task runs on.
	Machine []int
	// Loads[m] is the total duration assigned to machine m.
	Loads []float64
}

// Makespan returns the maximum machine load.
func (a Assignment) Makespan() float64 {
	mx := 0.0
	for _, l := range a.Loads {
		if l > mx {
			mx = l
		}
	}
	return mx
}

// LPT assigns tasks to m machines with the Longest Processing Time rule:
// sort tasks by decreasing duration and place each on the currently
// least-loaded machine. Guarantees makespan ≤ (4/3 − 1/(3m)) · OPT.
func LPT(tasks []Task, m int) Assignment {
	if m < 1 {
		m = 1
	}
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tasks[order[a]].Duration > tasks[order[b]].Duration
	})
	asg := Assignment{
		Machine: make([]int, len(tasks)),
		Loads:   make([]float64, m),
	}
	for _, i := range order {
		best := 0
		for mm := 1; mm < m; mm++ {
			if asg.Loads[mm] < asg.Loads[best] {
				best = mm
			}
		}
		asg.Machine[i] = best
		asg.Loads[best] += tasks[i].Duration
	}
	return asg
}

// LPTOrder returns the task indices in Longest-Processing-Time-first
// hand-out order: decreasing duration, stable for ties. Feeding it to
// RunPoolOrdered realizes LPT's 4/3 guarantee on a live worker pool (the
// pool's greedy pulls are exactly "place on the least-loaded machine"),
// instead of only in makespan simulation.
func LPTOrder(tasks []Task) []int {
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tasks[order[a]].Duration > tasks[order[b]].Duration
	})
	return order
}

// ListSchedule assigns tasks in their given order to the least-loaded
// machine (Graham's basic rule, 2 − 1/m guarantee). Used as the LPT
// ablation baseline.
func ListSchedule(tasks []Task, m int) Assignment {
	if m < 1 {
		m = 1
	}
	asg := Assignment{
		Machine: make([]int, len(tasks)),
		Loads:   make([]float64, m),
	}
	for i := range tasks {
		best := 0
		for mm := 1; mm < m; mm++ {
			if asg.Loads[mm] < asg.Loads[best] {
				best = mm
			}
		}
		asg.Machine[i] = best
		asg.Loads[best] += tasks[i].Duration
	}
	return asg
}

// TotalDuration returns the serial execution time of the task set.
func TotalDuration(tasks []Task) float64 {
	t := 0.0
	for _, task := range tasks {
		t += task.Duration
	}
	return t
}

// LowerBound returns a makespan lower bound: max(total/m, longest task).
func LowerBound(tasks []Task, m int) float64 {
	if m < 1 {
		m = 1
	}
	lb := TotalDuration(tasks) / float64(m)
	for _, t := range tasks {
		if t.Duration > lb {
			lb = t.Duration
		}
	}
	return lb
}

// RunPool executes n tasks on a pool of `workers` goroutines and collects
// the per-task results. fn must be safe for concurrent invocation. Results
// are returned in task order. A pool of one worker (workers ≤ 1 or n ≤ 1)
// runs the tasks inline in the caller's goroutine.
func RunPool[T any](n, workers int, fn func(i int) T) []T {
	return runPool(n, workers, nil, func(_, i int) T { return fn(i) })
}

// RunPoolOrdered is RunPool with an explicit hand-out order: idle workers
// pull the next index from order (which must be a permutation of [0, n))
// instead of ascending task order. Results are still indexed by task —
// out[order[k]] = fn(order[k]) — so the returned slice is identical to
// RunPool's regardless of order or worker count; only scheduling changes.
// Pass an LPTOrder permutation to bound the pool's makespan.
func RunPoolOrdered[T any](n, workers int, order []int, fn func(i int) T) []T {
	return runPool(n, workers, order, func(_, i int) T { return fn(i) })
}

// RunPoolScratch is RunPoolOrdered (order may be nil: ascending) for tasks
// that reuse scratch space: the pool's w-th goroutine runs fn(w, i) for
// each task i it pulls, w < min(workers, n), so fn may use per-worker state
// indexed by w without locking.
func RunPoolScratch[T any](n, workers int, order []int, fn func(w, i int) T) []T {
	return runPool(n, workers, order, fn)
}

func runPool[T any](n, workers int, order []int, fn func(w, i int) T) []T {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		// One worker runs inline: no goroutine for a pool of one.
		for k := 0; k < n; k++ {
			i := k
			if order != nil {
				i = order[k]
			}
			out[i] = fn(0, i)
		}
		return out
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if order != nil {
					i = order[i]
				}
				out[i] = fn(w, i)
			}
		}()
	}
	wg.Wait()
	return out
}
