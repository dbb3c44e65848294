package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"hipo"
	"hipo/internal/geom"
	"hipo/internal/model"
)

const (
	// mutSessions is how many pool scenarios a mutate-resolve run drives,
	// one session each, drawn one per cost stratum of the pool.
	mutSessions = 3
	// mutWarmup ops open every session trace and are dropped from timing:
	// the first warm re-solves after priming run well above the median.
	mutWarmup = 2
	// Timed part of a trace: single-device moves, add-then-remove device
	// pairs and small added obstacles, in a seeded order. The split is a
	// choice of this benchmark (no source gives a mutation mix): device
	// motion weighs most, churn is present, and obstacle inserts, whose
	// blast radius is the largest, stay bounded.
	mutMoves     = 7
	mutPairs     = 2
	mutObstacles = 1
	mutTimed     = mutMoves + 2*mutPairs + mutObstacles
)

// mutationTrace draws the fixed trace of one pool scenario from its seed:
// mutWarmup moves, then the timed ops. Every mutation is valid against the
// scenario as mutated so far. Moves and added devices go to uniformly drawn
// positions outside every obstacle; an added device is removed by the very
// next op; obstacles are 1.5 m squares kept 0.5 m clear of every device.
func mutationTrace(msc *model.Scenario, seed int64) []hipo.Mutation {
	rng := rand.New(rand.NewSource(seed ^ 0x6d757461))
	sc := msc.Clone()
	feasible := func() geom.Vec {
		for {
			p := geom.V(
				sc.Region.Min.X+rng.Float64()*sc.Region.Width(),
				sc.Region.Min.Y+rng.Float64()*sc.Region.Height(),
			)
			if sc.FeasiblePosition(p) {
				return p
			}
		}
	}
	var out []hipo.Mutation
	move := func() {
		i := rng.Intn(len(sc.Devices))
		p, orient := feasible(), rng.Float64()*2*math.Pi
		sc.Devices[i].Pos, sc.Devices[i].Orient = p, orient
		out = append(out, hipo.MutateMoveDevice(i, hipo.Point{X: p.X, Y: p.Y}, orient))
	}
	pair := func() {
		d := model.Device{Pos: feasible(), Orient: rng.Float64() * 2 * math.Pi, Type: rng.Intn(len(sc.DeviceTypes))}
		out = append(out,
			hipo.MutateAddDevice(hipo.Device{Pos: hipo.Point{X: d.Pos.X, Y: d.Pos.Y}, Orient: d.Orient, Type: d.Type}),
			hipo.MutateRemoveDevice(len(sc.Devices)))
	}
	obstacle := func() {
		const side, margin = 1.5, 0.5
		for {
			c := geom.V(
				sc.Region.Min.X+1+rng.Float64()*(sc.Region.Width()-side-2),
				sc.Region.Min.Y+1+rng.Float64()*(sc.Region.Height()-side-2),
			)
			clear := true
			for _, d := range sc.Devices {
				if d.Pos.X > c.X-margin && d.Pos.X < c.X+side+margin &&
					d.Pos.Y > c.Y-margin && d.Pos.Y < c.Y+side+margin {
					clear = false
					break
				}
			}
			if !clear {
				continue
			}
			vs := []geom.Vec{c, geom.V(c.X+side, c.Y), geom.V(c.X+side, c.Y+side), geom.V(c.X, c.Y+side)}
			sc.Obstacles = append(sc.Obstacles, model.Obstacle{Shape: geom.Polygon{Vertices: vs}})
			var pts []hipo.Point
			for _, v := range vs {
				pts = append(pts, hipo.Point{X: v.X, Y: v.Y})
			}
			out = append(out, hipo.MutateAddObstacle(hipo.Obstacle{Vertices: pts}))
			return
		}
	}

	for i := 0; i < mutWarmup; i++ {
		move()
	}
	units := make([]func(), 0, mutMoves+mutPairs+mutObstacles)
	for i := 0; i < mutMoves; i++ {
		units = append(units, move)
	}
	for i := 0; i < mutPairs; i++ {
		units = append(units, pair)
	}
	for i := 0; i < mutObstacles; i++ {
		units = append(units, obstacle)
	}
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	for _, u := range units {
		u()
	}
	return out
}

// mutEntry is one session of a mutate-resolve run.
type mutEntry struct {
	ref   mutateRef
	sc    *hipo.Scenario
	trace []hipo.Mutation
}

// startSession opens a session on e's scenario and primes it: the first
// solve, then the warm-up prefix of the trace with each op counted in rec.
func startSession(e *mutEntry, rec *recorder) (*hipo.Incremental, error) {
	inc, err := e.sc.NewIncremental(hipo.WithEps(eps))
	if err != nil {
		return nil, err
	}
	p, err := inc.Solve()
	if err := checkPlacement(p, err, e.ref.Prime); err != nil {
		return nil, fmt.Errorf("seed %d priming solve: %w", e.ref.Seed, err)
	}
	for s := 0; s < mutWarmup; s++ {
		rec.check(applySolve(inc, e.trace[s], e.ref.Steps[s]))
	}
	return inc, nil
}

func applySolve(inc *hipo.Incremental, m hipo.Mutation, want string) error {
	if err := inc.Apply(m); err != nil {
		return err
	}
	p, err := inc.Solve()
	return checkPlacement(p, err, want)
}

// mutPlan is the sessions a mutate-resolve run with this seed drives, in
// round order, and the digest of their traces.
func mutPlan(refs *refTable, seed int64) ([]*mutEntry, string, error) {
	type planned struct {
		Seed  int64           `json:"seed"`
		Trace []hipo.Mutation `json:"trace"`
	}
	var entries []*mutEntry
	var plan []planned
	for _, i := range pickStrata(seed, len(refs.Mutate), mutSessions) {
		ref := refs.Mutate[i]
		msc, pub := benchScenario(ref.Seed)
		trace := mutationTrace(msc, ref.Seed)
		if len(trace) != len(ref.Steps) {
			return nil, "", fmt.Errorf("seed %d: trace has %d ops, refs.json %d", ref.Seed, len(trace), len(ref.Steps))
		}
		entries = append(entries, &mutEntry{ref, pub, trace})
		plan = append(plan, planned{ref.Seed, trace})
	}
	return entries, planDigest(plan), nil
}

// runMutate is the mutate-resolve workload. A round opens one fresh session
// per drawn scenario (set-up: priming solve and warm-up ops, one set-up
// sample each), then times every remaining op of its trace. Sessions live
// until the end of the round.
func runMutate(cfg runConfig, rec *recorder) error {
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	entries, digest, err := mutPlan(refs, cfg.seed)
	if err != nil {
		return err
	}
	seeds := make([]int64, len(entries))
	for i, e := range entries {
		seeds[i] = e.ref.Seed
	}
	rec.note("plan %s: sessions on BenchScenario seeds %v, %d warm-up + %d timed ops each (%d moves, %d add/remove pairs, %d obstacles)",
		digest, seeds, mutWarmup, mutTimed, mutMoves, mutPairs, mutObstacles)

	for {
		live := make([]*hipo.Incremental, 0, len(entries))
		for _, e := range entries {
			t := time.Now()
			inc, err := startSession(e, rec)
			if !rec.check(err) {
				continue
			}
			rec.setup = append(rec.setup, since(t)/1e3)
			live = append(live, inc)
			runtime.GC()

			m := startMark()
			for s := mutWarmup; s < len(e.trace); s++ {
				t := time.Now()
				err := inc.Apply(e.trace[s])
				var p *hipo.Placement
				if err == nil {
					p, err = inc.Solve()
				}
				rec.lat = append(rec.lat, since(t))
				rec.check(checkPlacement(p, err, e.ref.Steps[s]))
			}
			rec.win.add(m)
		}
		rec.endRound()
		if cfg.trace {
			// The traced run times one round, for the GC figures of the
			// timed window, then replays each trace once more on a fresh
			// session, timing its layers and checking every warm re-solve
			// against a cold solve of the same mutated scenario.
			var mp mutProfile
			for _, e := range entries {
				rec.check(mp.profile(e, rec))
			}
			mp.report(rec)
		}
		if cfg.trace || rec.enough() {
			rec.measureRetained()
			runtime.KeepAlive(live)
			break
		}
	}
	if cfg.trace {
		rec.finishLayers()
	}
	return nil
}

// mutProfile accumulates the incremental layer's figures over the timed
// ops of a traced pass.
type mutProfile struct {
	ops                      int
	applyMs, solveMs, coldMs float64
	tasks, tasksReused       int
	sweeps, sweepsReused     int
	gainsWarm, gainsCold     int
	solves                   solveProfile
}

func (mp *mutProfile) profile(e *mutEntry, rec *recorder) error {
	inc, err := startSession(e, rec)
	if err != nil {
		return err
	}
	for s := mutWarmup; s < len(e.trace); s++ {
		before := inc.Stats()
		t := time.Now()
		if err := inc.Apply(e.trace[s]); err != nil {
			return fmt.Errorf("seed %d step %d: %w", e.ref.Seed, s, err)
		}
		applyMs := since(t)
		t = time.Now()
		warm, err := inc.Solve()
		solveMs := since(t)
		if err := checkPlacement(warm, err, e.ref.Steps[s]); err != nil {
			return fmt.Errorf("seed %d step %d: warm: %w", e.ref.Seed, s, err)
		}
		after := inc.Stats()

		mutated := inc.Scenario()
		t = time.Now()
		cold, err := mutated.Solve(hipo.WithEps(eps))
		coldMs := since(t)
		if err := checkPlacement(cold, err, digest(warm.Chargers, warm.Utility)); err != nil {
			return fmt.Errorf("seed %d step %d: cold solve differs from warm: %w", e.ref.Seed, s, err)
		}

		mp.ops++
		mp.applyMs += applyMs
		mp.solveMs += solveMs
		mp.coldMs += coldMs
		mp.tasks += after.TasksRecomputed - before.TasksRecomputed
		mp.tasksReused += after.TasksReused - before.TasksReused
		mp.sweeps += after.SweepsComputed - before.SweepsComputed
		mp.sweepsReused += after.SweepsReused - before.SweepsReused
		mp.gainsWarm += after.GainsWarm - before.GainsWarm
		mp.gainsCold += after.GainsCold - before.GainsCold
	}
	// The session's final scenario, solved cold and stage by stage.
	return mp.solves.profile(inc.Scenario(), e.ref.Steps[len(e.trace)-1])
}

func (mp *mutProfile) report(rec *recorder) {
	if mp.ops == 0 {
		return
	}
	n := float64(mp.ops)
	ratio := func(a, b int) float64 { return float64(a) / float64(max(1, a+b)) }
	rec.layer("incremental.apply_ms", mp.applyMs/n, "ms")
	rec.layer("incremental.solve_ms", mp.solveMs/n, "ms")
	rec.layer("incremental.tasks_recomputed", float64(mp.tasks)/n, "count")
	rec.layer("incremental.task_reuse_ratio", ratio(mp.tasksReused, mp.tasks), "ratio")
	rec.layer("incremental.sweeps_computed", float64(mp.sweeps)/n, "count")
	rec.layer("incremental.sweep_reuse_ratio", ratio(mp.sweepsReused, mp.sweeps), "ratio")
	rec.layer("incremental.gains_warm_ratio", ratio(mp.gainsWarm, mp.gainsCold), "ratio")
	rec.layer("incremental.cold_ms", mp.coldMs/n, "ms")
	rec.layer("incremental.warm_speedup", mp.coldMs/(mp.applyMs+mp.solveMs), "x")
	mp.solves.report(rec)
}
