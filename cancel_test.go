package hipo

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"
)

// cancelScenario is a deliberately heavy instance (~130 devices, 3 charger
// types, 2 obstacles) whose solve takes long enough that a cancellation
// issued shortly after the start lands mid-pipeline.
func cancelScenario() *Scenario {
	sc := &Scenario{
		Min: Point{X: 0, Y: 0}, Max: Point{X: 60, Y: 60},
		ChargerTypes: []ChargerSpec{
			{Name: "narrow", Alpha: math.Pi / 6, DMin: 5, DMax: 10, Count: 3},
			{Name: "mid", Alpha: math.Pi / 3, DMin: 3, DMax: 8, Count: 3},
			{Name: "wide", Alpha: math.Pi / 2, DMin: 2, DMax: 6, Count: 3},
		},
		DeviceTypes: []DeviceSpec{
			{Name: "d1", Alpha: math.Pi / 2, PTh: 0.05},
			{Name: "d2", Alpha: math.Pi, PTh: 0.05},
		},
		Power: [][]PowerParams{
			{{A: 100, B: 40}, {A: 130, B: 52}},
			{{A: 110, B: 44}, {A: 140, B: 56}},
			{{A: 120, B: 48}, {A: 150, B: 60}},
		},
		Obstacles: []Obstacle{
			{Vertices: []Point{{X: 17, Y: 17}, {X: 21, Y: 16}, {X: 22, Y: 20}, {X: 18, Y: 21}}},
			{Vertices: []Point{{X: 38, Y: 34}, {X: 45, Y: 34}, {X: 45, Y: 39}, {X: 38, Y: 39}}},
		},
	}
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			x, y := 2+float64(i)*5.1, 2+float64(j)*5.1
			if (x >= 16 && x <= 23 && y >= 15 && y <= 22) ||
				(x >= 37 && x <= 46 && y >= 33 && y <= 40) {
				continue // would fall inside (or hug) an obstacle
			}
			sc.Devices = append(sc.Devices, Device{
				Pos:    Point{X: x, Y: y},
				Orient: float64(i*12+j) * 0.7,
				Type:   (i + j) % 2,
			})
		}
	}
	return sc
}

// TestWithContextCancellation cancels a large solve mid-pipeline and
// verifies the context error surfaces promptly and that the solver's
// worker goroutines all exit.
func TestWithContextCancellation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sc := cancelScenario()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	errc := make(chan error, 1)
	go func() {
		_, err := sc.Solve(WithContext(ctx))
		errc <- err
	}()
	// The full solve takes hundreds of milliseconds even without -race;
	// canceling after a short delay lands inside the extraction stage.
	time.Sleep(25 * time.Millisecond)
	cancel()

	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("solve completed before cancellation took effect; scenario too small")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled in the chain", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("canceled solve did not return promptly")
	}

	// All pipeline goroutines must wind down once the solve returns.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+1 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak after canceled solve: %d before, %d after\n%s",
		baseline, runtime.NumGoroutine(), buf[:n])
}

// TestWithContextPreCanceled: a context canceled before the solve starts
// must abort before any heavy work.
func TestWithContextPreCanceled(t *testing.T) {
	sc := cancelScenario()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := sc.Solve(WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("pre-canceled solve still ran for %v", elapsed)
	}
}

// TestPreCanceledObjectivesFail: the objectives built on candidate
// extraction (budgeted, max-min, proportional fairness) must report a
// canceled context instead of solving over the charger types extracted
// before the cancellation landed.
func TestPreCanceledObjectivesFail(t *testing.T) {
	sc := demoScenario()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		solve func() (*Placement, error)
	}{
		{"budgeted", func() (*Placement, error) {
			return sc.SolveBudgeted(DeploymentBudget{Depot: Point{0, 0}, PerMeter: 1, Budget: 1e9}, WithContext(ctx))
		}},
		{"maxmin", func() (*Placement, error) { return sc.SolveMaxMin(50, 1, WithContext(ctx)) }},
		{"proportional-fair", func() (*Placement, error) { return sc.SolveProportionalFair(WithContext(ctx)) }},
	} {
		p, err := tc.solve()
		if !errors.Is(err, context.Canceled) {
			n := -1
			if p != nil {
				n = len(p.Chargers)
			}
			t.Errorf("%s: err = %v with %d chargers, want context.Canceled", tc.name, err, n)
		}
	}
}
