package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"hipo"
)

// Scenario pools of the solver workloads: BenchScenario seeds. Each run
// draws coldScenarios (mutSessions) of them, one per stratum.
const (
	coldPoolFirst, coldPoolSize = 1, 24
	mutPoolFirst, mutPoolSize   = 101, 12
)

// recordRefs solves every pool scenario and trace step and writes the
// reference table to path. Run it only when a change is meant to alter
// placements:
//
//	go -C perfbench run . -record refs.json
//
// Every warm re-solve is checked against a cold solve of the same mutated
// scenario before its digest is recorded.
func recordRefs(path string) error {
	t := refTable{Schema: refsSchema, Eps: eps}
	for seed := int64(coldPoolFirst); seed < coldPoolFirst+coldPoolSize; seed++ {
		_, pub := benchScenario(seed)
		p, positions, err := tracedSolve(pub)
		if err != nil {
			return fmt.Errorf("cold seed %d: %w", seed, err)
		}
		t.Cold = append(t.Cold, coldRef{Seed: seed, Positions: positions, Digest: digest(p.Chargers, p.Utility)})
		fmt.Fprintf(os.Stderr, "cold seed %d: %d positions\n", seed, positions)
	}
	for seed := int64(mutPoolFirst); seed < mutPoolFirst+mutPoolSize; seed++ {
		ref, err := recordSession(seed)
		if err != nil {
			return fmt.Errorf("mutate seed %d: %w", seed, err)
		}
		t.Mutate = append(t.Mutate, ref)
		fmt.Fprintf(os.Stderr, "mutate seed %d: %d positions, %d steps\n", seed, ref.Positions, len(ref.Steps))
	}
	sort.SliceStable(t.Cold, func(i, j int) bool { return t.Cold[i].Positions < t.Cold[j].Positions })
	sort.SliceStable(t.Mutate, func(i, j int) bool { return t.Mutate[i].Positions < t.Mutate[j].Positions })
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// tracedSolve solves pub and returns the candidate positions it swept.
func tracedSolve(pub *hipo.Scenario) (*hipo.Placement, int, error) {
	tr := hipo.NewTracer()
	p, err := pub.Solve(hipo.WithEps(eps), hipo.WithTracer(tr))
	if err != nil {
		return nil, 0, err
	}
	p.Trace = nil
	return p, int(tr.Breakdown().Counters["candidate_positions"]), nil
}

func recordSession(seed int64) (mutateRef, error) {
	msc, pub := benchScenario(seed)
	ref := mutateRef{Seed: seed}
	cold, positions, err := tracedSolve(pub)
	if err != nil {
		return ref, err
	}
	ref.Positions = positions
	inc, err := pub.NewIncremental(hipo.WithEps(eps))
	if err != nil {
		return ref, err
	}
	p, err := inc.Solve()
	if err != nil {
		return ref, err
	}
	ref.Prime = digest(p.Chargers, p.Utility)
	if d := digest(cold.Chargers, cold.Utility); d != ref.Prime {
		return ref, fmt.Errorf("priming solve %s differs from cold solve %s", ref.Prime, d)
	}
	for s, m := range mutationTrace(msc, seed) {
		if err := inc.Apply(m); err != nil {
			return ref, fmt.Errorf("step %d: %w", s, err)
		}
		warm, err := inc.Solve()
		if err != nil {
			return ref, fmt.Errorf("step %d: %w", s, err)
		}
		cold, err := inc.Scenario().Solve(hipo.WithEps(eps))
		if err != nil {
			return ref, fmt.Errorf("step %d cold: %w", s, err)
		}
		d := digest(warm.Chargers, warm.Utility)
		if c := digest(cold.Chargers, cold.Utility); c != d {
			return ref, fmt.Errorf("step %d: warm %s differs from cold %s", s, d, c)
		}
		ref.Steps = append(ref.Steps, d)
	}
	return ref, nil
}
