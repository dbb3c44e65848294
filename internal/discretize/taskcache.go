package discretize

import (
	"slices"

	"hipo/internal/geom"
	"hipo/internal/hipotrace"
	"hipo/internal/schedule"
)

// PartKind names one kind of part of a task's position workload. Task i's
// workload is its ring cuts, then its event samples, then one pair part
// per neighbor j > i in ascending j: the cold order of appendTaskPositions.
// Each kind depends on its own slice of the scenario, so a cache can drop
// the parts a mutation reaches and keep the rest.
type PartKind int32

const (
	// RingCuts is device i's level rings cut against its own sector edges,
	// hole rays and nearby obstacle edges: a function of device i and the
	// obstacles.
	RingCuts PartKind = iota
	// EventSamples is device i's event-angle samples. Besides device i and
	// the obstacles they read the directions to i's 2·d_max neighbors.
	EventSamples
	// Pair is the construction for the device pair (i, J), J > i: a
	// function of devices i and J and the obstacles.
	Pair
	// Dropped marks a part invalidated since its task was last assembled.
	// Positions regenerates it if the task still needs it.
	Dropped
)

// Part is one entry of a cached task's span table: the task's positions
// [End of the previous part, End) belong to it.
type Part struct {
	Kind PartKind
	J    int32 // pair partner; unused for the other kinds
	End  int32
}

// cachedTask is one task's workload: the concatenation of its parts in
// cold order, held in one exact-length slice, and the span table of its
// parts (parts[0] is the ring cuts, parts[1] the event samples, the rest
// pairs by ascending J, each possibly Dropped). nil parts: nothing cached.
type cachedTask struct {
	pos   []geom.Vec
	parts []Part
}

// CacheStats counts what Positions did with a TaskCache, cumulative over
// its calls.
type CacheStats struct {
	// TasksReused counts tasks served whole from the cache;
	// TasksRegenerated counts tasks with at least one part regenerated.
	TasksReused, TasksRegenerated int
	// Pairs counts the pair parts regenerated.
	Pairs int
}

// TaskCache carries the per-task position workloads of one charger type
// across Positions calls (a pdcs.Store), part by part. The caller
// drops the parts a scenario change reaches, through the methods below;
// Positions regenerates exactly the parts a task needs and does not hold,
// and reassembles the task in cold order, so its output is that of a fresh
// generator bit for bit. Positions empties a cache whose task count is
// not the scenario's device count. Not safe for concurrent use.
type TaskCache struct {
	tasks []cachedTask
	stats CacheStats
}

// NewTaskCache returns an empty cache for a scenario of n devices.
func NewTaskCache(n int) *TaskCache {
	return &TaskCache{tasks: make([]cachedTask, n)}
}

// Stats returns the cumulative counters.
func (c *TaskCache) Stats() CacheStats { return c.stats }

// Task returns task i's cached positions, in cold order; they are read-only.
func (c *TaskCache) Task(i int) []geom.Vec { return c.tasks[i].pos }

// Parts returns a copy of task i's span table.
func (c *TaskCache) Parts(i int) []Part { return slices.Clone(c.tasks[i].parts) }

// AddTask appends the empty task of an appended device. The new device's
// pairs with earlier devices are missing from their tasks, so Positions
// generates them.
func (c *TaskCache) AddTask() { c.tasks = append(c.tasks, cachedTask{}) }

// RemoveTask deletes the task of removed device r and its pairs with
// earlier devices; later devices shift down by one, in the tasks and as
// pair partners.
func (c *TaskCache) RemoveTask(r int) {
	c.dropPairsWith(r)
	c.tasks = slices.Delete(c.tasks, r, r+1)
	for i := range c.tasks {
		for k := range c.tasks[i].parts {
			if p := &c.tasks[i].parts[k]; p.Kind == Pair && int(p.J) > r {
				p.J--
			}
		}
	}
}

// DropDevice drops every part that reads device m: its whole task and its
// pairs with earlier devices. The event samples of m's neighbors are the
// caller's to drop (DropEventSamples).
func (c *TaskCache) DropDevice(m int) {
	c.tasks[m] = cachedTask{}
	c.dropPairsWith(m)
}

// dropPairsWith marks the pairs (i, m), i < m, Dropped.
func (c *TaskCache) dropPairsWith(m int) {
	for i := range c.tasks[:m] {
		for k := range c.tasks[i].parts {
			if p := &c.tasks[i].parts[k]; p.Kind == Pair && int(p.J) == m {
				p.Kind = Dropped
			}
		}
	}
}

// DropEventSamples drops task i's event samples.
func (c *TaskCache) DropEventSamples(i int) {
	if ps := c.tasks[i].parts; len(ps) > 1 && ps[1].Kind == EventSamples {
		ps[1].Kind = Dropped
	}
}

// DropAll empties every task, as an obstacle change requires: every kind
// of part reads the obstacles.
func (c *TaskCache) DropAll() { clear(c.tasks) }

// cachedPositions is Positions over a TaskCache: the tasks it does not
// hold whole are refreshed on the workers, then every task's workload, in
// task order, goes through the same dedup as a cold call.
func (g *Generator) cachedPositions(c *TaskCache) []geom.Vec {
	if len(c.tasks) != len(g.sc.Devices) {
		c.tasks = make([]cachedTask, len(g.sc.Devices))
	}
	var todo []schedule.Task
	for i := range c.tasks {
		if !g.complete(&c.tasks[i], i) {
			todo = append(todo, schedule.Task{ID: i, Duration: g.refreshCost(&c.tasks[i], i)})
		}
	}
	workers := g.workers()
	scratch := make([]genScratch, min(workers, len(todo)))
	pairs := schedule.RunPoolScratch(len(todo), workers, schedule.LPTOrder(todo), func(w, k int) int {
		return g.refresh(&c.tasks[todo[k].ID], todo[k].ID, &scratch[w])
	})
	c.stats.TasksRegenerated += len(todo)
	c.stats.TasksReused += len(c.tasks) - len(todo)
	for _, n := range pairs {
		c.stats.Pairs += n
	}
	parts := make([][]geom.Vec, len(c.tasks))
	for i := range c.tasks {
		parts[i] = c.tasks[i].pos
	}
	return g.dedup(parts)
}

// complete reports whether task i's cached parts are exactly the ones it
// needs: its ring cuts, its event samples and a pair with every current
// neighbor j > i, none dropped.
func (g *Generator) complete(t *cachedTask, i int) bool {
	ps := t.parts
	if len(ps) < 2 || ps[0].Kind != RingCuts || ps[1].Kind != EventSamples {
		return false
	}
	k := 2
	for _, j := range g.neighbors[i] {
		if j <= i {
			continue
		}
		if k == len(ps) || ps[k].Kind != Pair || int(ps[k].J) != j {
			return false
		}
		k++
	}
	return k == len(ps)
}

// refreshCost estimates the cost of refreshing task i for LPT hand-out:
// TaskCost when its ring cuts are missing (a new, moved or reset task),
// otherwise the event-sample count. Order changes load balance only.
func (g *Generator) refreshCost(t *cachedTask, i int) float64 {
	if len(t.parts) == 0 || t.parts[0].Kind != RingCuts {
		return g.TaskCost(i)
	}
	return float64(len(g.circles[i]) * (2 + len(g.holes[i]) + len(g.neighbors[i])))
}

// refresh reassembles task i in cold order, copying the parts it holds and
// generating the ones it needs and does not hold into one buffer, and
// returns the number of pairs it generated. s is the worker's scratch.
func (g *Generator) refresh(t *cachedTask, i int, s *genScratch) int {
	old := t.parts
	held := func(k int, kind PartKind) ([]geom.Vec, bool) {
		if k >= len(old) || old[k].Kind != kind {
			return nil, false
		}
		start := int32(0)
		if k > 0 {
			start = old[k-1].End
		}
		return t.pos[start:old[k].End], true
	}
	npairs := 0
	for _, j := range g.neighbors[i] {
		if j > i {
			npairs++
		}
	}
	parts := make([]Part, 0, 2+npairs)
	buf, _ := getPosBuf()
	feas := 0
	if pts, ok := held(0, RingCuts); ok {
		buf = append(buf, pts...)
	} else {
		buf = g.appendRingCuts(buf, i, s, &feas)
	}
	parts = append(parts, Part{Kind: RingCuts, End: int32(len(buf))})
	if pts, ok := held(1, EventSamples); ok {
		buf = append(buf, pts...)
	} else {
		buf = g.appendEventSamples(buf, i, s, &feas)
	}
	parts = append(parts, Part{Kind: EventSamples, End: int32(len(buf))})
	g.cfg.Tracer.Add(hipotrace.CtrFeasibilityQueries, int64(feas))
	// Held pairs ascend in J, so one cursor walks them against the
	// ascending neighbor list.
	k, regen := 2, 0
	for _, j := range g.neighbors[i] {
		if j <= i {
			continue
		}
		for k < len(old) && (old[k].Kind != Pair || int(old[k].J) < j) {
			k++
		}
		if pts, ok := held(k, Pair); ok && int(old[k].J) == j {
			buf = append(buf, pts...)
			k++
		} else {
			buf = g.appendPairPositions(buf, i, j)
			regen++
		}
		parts = append(parts, Part{Kind: Pair, J: int32(j), End: int32(len(buf))})
	}
	t.pos = make([]geom.Vec, len(buf))
	copy(t.pos, buf)
	t.parts = parts
	putPosBuf(buf)
	return regen
}
