package schedule

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func mkTasks(durs ...float64) []Task {
	ts := make([]Task, len(durs))
	for i, d := range durs {
		ts[i] = Task{ID: i, Duration: d}
	}
	return ts
}

func TestLPTBasic(t *testing.T) {
	// Classic: {5,4,3,3,3} on 2 machines → LPT gives loads {5+3, 4+3+3} = {8,10}...
	// walk it: sorted 5,4,3,3,3; 5→m0, 4→m1, 3→m1? loads {5,4}: least is m1 →
	// {5,7}; next 3→m0 → {8,7}; next 3→m1 → {8,10}. Makespan 10; OPT is 9.
	asg := LPT(mkTasks(5, 4, 3, 3, 3), 2)
	if got := asg.Makespan(); got != 10 {
		t.Errorf("makespan = %v, want 10", got)
	}
	// All tasks assigned to valid machines; loads consistent.
	sum := 0.0
	for _, l := range asg.Loads {
		sum += l
	}
	if sum != 18 {
		t.Errorf("total load = %v", sum)
	}
}

func TestLPTSingleMachine(t *testing.T) {
	tasks := mkTasks(1, 2, 3)
	asg := LPT(tasks, 1)
	if asg.Makespan() != 6 {
		t.Errorf("makespan = %v", asg.Makespan())
	}
	// m < 1 clamps to 1.
	if LPT(tasks, 0).Makespan() != 6 {
		t.Error("m=0 should clamp to one machine")
	}
}

func TestLPTMoreMachinesNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(30)
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{ID: i, Duration: rng.Float64() * 10}
		}
		prev := LPT(tasks, 1).Makespan()
		for m := 2; m <= 8; m++ {
			cur := LPT(tasks, m).Makespan()
			if cur > prev+1e-9 {
				t.Fatalf("makespan grew with machines: m=%d %v > %v", m, cur, prev)
			}
			prev = cur
		}
	}
}

// Property: LPT respects Graham's bound makespan ≤ (4/3 − 1/(3m))·OPT,
// checked against the lower bound (OPT ≥ LowerBound).
func TestLPTApproximationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(20)
		m := 2 + rng.Intn(5)
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{ID: i, Duration: 0.1 + rng.Float64()*5}
		}
		ms := LPT(tasks, m).Makespan()
		lb := LowerBound(tasks, m)
		bound := (4.0/3.0 - 1.0/(3.0*float64(m)))
		// OPT ≥ lb, so ms must be ≤ bound·OPT cannot be checked directly,
		// but ms ≤ bound·OPT and OPT ≤ ms imply ms/lb ≤ bound·(OPT/lb);
		// the safe assertable invariant is ms ≥ lb and ms ≤ 2·lb·bound.
		if ms < lb-1e-9 {
			t.Fatalf("makespan %v below lower bound %v", ms, lb)
		}
		if ms > bound*lb*2 {
			t.Fatalf("makespan %v wildly above bound·lb (%v)", ms, bound*lb)
		}
	}
}

func TestLPTBeatsOrEqualsListScheduleOnAdversarial(t *testing.T) {
	// Increasing task order is adversarial for plain list scheduling.
	tasks := mkTasks(1, 1, 1, 1, 1, 1, 3, 3, 3)
	m := 3
	lpt := LPT(tasks, m).Makespan()
	ls := ListSchedule(tasks, m).Makespan()
	if lpt > ls {
		t.Errorf("LPT %v worse than list schedule %v", lpt, ls)
	}
	if lpt != 5 {
		t.Errorf("LPT makespan = %v, want 5", lpt) // 3+1+1 per machine
	}
}

func TestAssignmentConsistency(t *testing.T) {
	tasks := mkTasks(4, 2, 7, 1, 3)
	asg := LPT(tasks, 3)
	loads := make([]float64, 3)
	for i, m := range asg.Machine {
		if m < 0 || m >= 3 {
			t.Fatalf("task %d on invalid machine %d", i, m)
		}
		loads[m] += tasks[i].Duration
	}
	for m := range loads {
		if loads[m] != asg.Loads[m] {
			t.Errorf("machine %d load mismatch: %v vs %v", m, loads[m], asg.Loads[m])
		}
	}
}

func TestTotalAndLowerBound(t *testing.T) {
	tasks := mkTasks(2, 8, 4)
	if TotalDuration(tasks) != 14 {
		t.Error("total wrong")
	}
	// max(14/2, 8) = 8.
	if LowerBound(tasks, 2) != 8 {
		t.Errorf("lower bound = %v", LowerBound(tasks, 2))
	}
	// max(14/7, 8) = 8.
	if LowerBound(tasks, 7) != 8 {
		t.Errorf("lower bound = %v", LowerBound(tasks, 7))
	}
}

func TestRunPool(t *testing.T) {
	var calls int64
	out := RunPool(100, 8, func(i int) int {
		atomic.AddInt64(&calls, 1)
		return i * i
	})
	if calls != 100 {
		t.Errorf("calls = %d", calls)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	// Degenerate sizes.
	if got := RunPool(0, 4, func(i int) int { return i }); len(got) != 0 {
		t.Error("n=0 should return empty")
	}
	if got := RunPool(3, 0, func(i int) int { return i + 1 }); got[2] != 3 {
		t.Error("workers=0 should clamp to 1 and still run")
	}
}

// TestRunPoolScratch checks that RunPoolScratch runs every task once, in
// the given order's pull sequence, and that no two goroutines share a
// worker index.
func TestRunPoolScratch(t *testing.T) {
	const n, workers = 200, 4
	var busy [workers]atomic.Int32
	out := RunPoolScratch(n, workers, nil, func(w, i int) int {
		if w < 0 || w >= workers {
			t.Errorf("task %d: worker index %d out of range", i, w)
			return -1
		}
		if busy[w].Add(1) != 1 {
			t.Errorf("worker index %d used by two goroutines at once", w)
		}
		defer busy[w].Add(-1)
		return i * 3
	})
	for i, v := range out {
		if v != i*3 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	order := []int{2, 0, 1}
	if got := RunPoolScratch(3, 1, order, func(w, i int) int { return w*10 + i }); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("single worker: got %v, want [0 1 2]", got)
	}
}
