package main

import (
	"fmt"
	"runtime"
	"time"

	"hipo"
)

// coldScenarios is how many pool scenarios a cold-solve run rotates over,
// one from each cost stratum of the pool, so a run's mean cost varies
// little from seed to seed.
const coldScenarios = 6

// coldPlan is the pool scenarios a cold-solve run with this seed solves,
// in round order.
func coldPlan(refs *refTable, seed int64) []coldRef {
	var out []coldRef
	for _, i := range pickStrata(seed, len(refs.Cold), coldScenarios) {
		out = append(out, refs.Cold[i])
	}
	return out
}

// runCold is the cold-solve workload: one caller, back-to-back Solve calls
// with default options (lazy greedy, GOMAXPROCS workers) at ε = 0.3. A
// round solves each of the run's scenarios once.
func runCold(cfg runConfig, rec *recorder) error {
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	type entry struct {
		ref coldRef
		sc  *hipo.Scenario
	}
	var entries []entry
	plan := coldPlan(refs, cfg.seed)
	for _, ref := range plan {
		// Set-up of one scenario: build it and make its first solve, the
		// slowest of a process.
		t := time.Now()
		_, pub := benchScenario(ref.Seed)
		p, err := pub.Solve(hipo.WithEps(eps))
		rec.check(checkPlacement(p, err, ref.Digest))
		rec.setup = append(rec.setup, since(t)/1e3)
		entries = append(entries, entry{ref, pub})
	}
	seeds := make([]int64, len(plan))
	for i, ref := range plan {
		seeds[i] = ref.Seed
	}
	rec.note("plan %s: one round solves BenchScenario seeds %v", planDigest(plan), seeds)

	var prof solveProfile
	if cfg.trace {
		for _, e := range entries {
			err := prof.profile(e.sc, e.ref.Digest)
			if err != nil {
				err = fmt.Errorf("profile of seed %d: %w", e.ref.Seed, err)
			}
			rec.check(err)
		}
		prof.report(rec)
	}
	runtime.GC()

	// The traced run needs one round, for the GC figures of the timed
	// window; its end-to-end figures are not reported.
	for done := false; !done; done = cfg.trace || rec.enough() {
		m := startMark()
		for _, e := range entries {
			t := time.Now()
			p, err := e.sc.Solve(hipo.WithEps(eps))
			rec.lat = append(rec.lat, since(t))
			rec.check(checkPlacement(p, err, e.ref.Digest))
		}
		rec.win.add(m)
		rec.endRound()
	}
	rec.measureRetained()
	runtime.KeepAlive(entries)
	if cfg.trace {
		rec.finishLayers()
	}
	return nil
}
