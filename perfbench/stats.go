package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// maxRunWall caps a run's own length so it exits well inside the 180 s a
// run is allowed, even on a much slower machine.
const maxRunWall = 140 * time.Second

// recorder accumulates one run's samples, checks and metrics.
type recorder struct {
	tailPct float64
	seconds float64
	start   time.Time

	lat    []float64 // timed op latencies, ms
	setup  []float64 // set-up samples, s
	win    window    // resources used inside the timed window
	rounds []roundEnd

	attempted, failed int
	failures          []string // first few op failures, for stderr
	violations        []string // broken run invariants (plan counts, ...)

	retainedMB float64
	layers     map[string]metric
	notes      []string
}

func newRecorder(tailPct, seconds float64) *recorder {
	return &recorder{tailPct: tailPct, seconds: seconds, start: time.Now(), layers: map[string]metric{}}
}

// check counts one attempted op and, when err is non-nil, one failure.
func (r *recorder) check(err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
	return false
}

// violate records a broken run invariant; the run reports correct=false.
func (r *recorder) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *recorder) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// roundEnd is the running totals at the end of one round.
type roundEnd struct {
	win window
	ops int
}

// endRound closes a round: the timed intervals and op latencies recorded
// since the previous call make one round sample.
func (r *recorder) endRound() {
	r.rounds = append(r.rounds, roundEnd{r.win, len(r.lat)})
}

// perRound returns the median over rounds of f(round window, round ops), so
// a burst of machine noise that spans a few rounds does not move the run's
// figure.
func (r *recorder) perRound(f func(w window, ops float64) float64) float64 {
	var xs []float64
	var prev roundEnd
	for _, e := range r.rounds {
		if ops := e.ops - prev.ops; ops > 0 {
			xs = append(xs, f(e.win.minus(prev.win), float64(ops)))
		}
		prev = e
	}
	return median(xs)
}

// enough reports whether the run may stop at this round boundary: the
// timed window has reached the requested seconds and at least ten samples
// lie beyond the tail percentile — or the run's wall-time cap is hit.
func (r *recorder) enough() bool {
	if time.Since(r.start) > maxRunWall {
		return true
	}
	n := len(r.lat)
	return r.win.elapsed.Seconds() >= r.seconds && n-rank(r.tailPct, n) >= 10
}

// measureRetained records the live heap after garbage collection. The
// caller keeps its workload state reachable across the call.
func (r *recorder) measureRetained() {
	r.retainedMB = liveHeap() / 1e6
}

// liveHeap returns the bytes of live heap objects after garbage
// collection; the second cycle empties the sync.Pool victim caches the
// first one left.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// layer sets one per-layer metric of the traced run.
func (r *recorder) layer(name string, value float64, unit string) {
	r.layers[name] = metric{Value: value, Unit: unit}
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(1, min(k, n))
}

// percentile returns the nearest-rank percentile p of ascending xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// endToEnd returns the run's end-to-end metrics. Latency percentiles are
// taken over every timed op; throughput, CPU and allocation per op are
// medians of the per-round figures.
func (r *recorder) endToEnd() map[string]metric {
	sorted := append([]float64(nil), r.lat...)
	sort.Float64s(sorted)
	return map[string]metric{
		"setup_s":    {median(r.setup), "s"},
		"op_p50_ms":  {percentile(sorted, 50), "ms"},
		"op_tail_ms": {percentile(sorted, r.tailPct), "ms"},
		"ops_per_s": {r.perRound(func(w window, ops float64) float64 {
			return ops / w.elapsed.Seconds()
		}), "1/s"},
		"cpu_ms_per_op": {r.perRound(func(w window, ops float64) float64 {
			return float64(w.cpu.Nanoseconds()) / 1e6 / ops
		}), "ms"},
		"alloc_mb_per_op": {r.perRound(func(w window, ops float64) float64 {
			return float64(w.alloc) / 1e6 / ops
		}), "MB"},
		"retained_heap_mb": {r.retainedMB, "MB"},
	}
}

// summary prints the run's metrics, fail ratio and notes for a reader.
func (r *recorder) summary(w io.Writer, name string, trace bool) {
	n := len(r.lat)
	fmt.Fprintf(w, "%s: %d timed ops in %d rounds, %.2fs, %d set-up samples, tail = p%g (%d samples beyond)\n",
		name, n, len(r.rounds), r.win.elapsed.Seconds(), len(r.setup), r.tailPct, n-rank(r.tailPct, n))
	sorted := append([]float64(nil), r.lat...)
	sort.Float64s(sorted)
	fmt.Fprint(w, "  op latency ms:")
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		fmt.Fprintf(w, " p%g=%.4g", p, percentile(sorted, p))
	}
	fmt.Fprintln(w)
	ms := r.layers
	if !trace {
		ms = r.endToEnd()
	}
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
	fmt.Fprintf(w, "  %-34s %14.4f %s\n", "fail_ratio", float64(r.failed)/float64(max(1, r.attempted)), "ratio")
	for _, s := range r.notes {
		fmt.Fprintln(w, "  note:", s)
	}
	for _, s := range r.failures {
		fmt.Fprintln(w, "  FAILED:", s)
	}
	for _, s := range r.violations {
		fmt.Fprintln(w, "  VIOLATION:", s)
	}
}

// window sums the resources used over the timed intervals of a run.
type window struct {
	elapsed time.Duration
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	pauseNs uint64
}

// mark is the resource reading at the start of a timed interval.
type mark struct {
	t     time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint32
	pause uint64
}

func startMark() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{cpu: cpuTime(), alloc: ms.TotalAlloc, gcs: ms.NumGC, pause: ms.PauseTotalNs, t: time.Now()}
}

// add closes the interval opened by m.
func (w *window) add(m mark) {
	t := time.Now()
	cpu := cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.elapsed += t.Sub(m.t)
	w.cpu += cpu - m.cpu
	w.alloc += ms.TotalAlloc - m.alloc
	w.gcs += ms.NumGC - m.gcs
	w.pauseNs += ms.PauseTotalNs - m.pause
}

// minus returns the resources of w beyond the earlier totals o.
func (w window) minus(o window) window {
	return window{
		elapsed: w.elapsed - o.elapsed,
		cpu:     w.cpu - o.cpu,
		alloc:   w.alloc - o.alloc,
		gcs:     w.gcs - o.gcs,
		pauseNs: w.pauseNs - o.pauseNs,
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
