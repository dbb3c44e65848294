package hipo

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"hipo/internal/expt"
)

// placementDigest hashes a placement's exact bits.
func placementDigest(p *Placement) uint64 {
	h := fnv.New64a()
	for _, c := range p.Chargers {
		fmt.Fprint(h, math.Float64bits(c.Pos.X), math.Float64bits(c.Pos.Y), math.Float64bits(c.Orient), c.Type)
	}
	fmt.Fprint(h, math.Float64bits(p.Utility))
	return h.Sum64()
}

// TestEpsValidation: Solve, NewIncremental, and SolveIncremental reject ε
// outside (0, 1/2) — NaN included — instead of quietly solving at the
// default, and valid ε keep their placements bit for bit.
func TestEpsValidation(t *testing.T) {
	s := publicScenario(expt.BuildScenario(expt.Params{Seed: 2}))
	for _, tc := range []struct {
		eps    float64
		digest uint64 // 0: must be rejected
	}{
		{math.NaN(), 0},
		{-1, 0},
		{0.5, 0},
		{0.7, 0},
		{0.15, 0x326feb6bb8b0af7d},
		{0.3, 0x978a2adfd36354ff},
	} {
		name := fmt.Sprint(tc.eps)
		p, errSolve := s.Solve(WithEps(tc.eps))
		inc, errNew := s.NewIncremental(WithEps(tc.eps))
		pi, errOne := s.SolveIncremental(nil, WithEps(tc.eps))
		if tc.digest == 0 {
			if errSolve == nil || errNew == nil || errOne == nil {
				t.Errorf("ε=%s accepted: Solve err %v, NewIncremental err %v, SolveIncremental err %v", name, errSolve, errNew, errOne)
			}
			continue
		}
		if errSolve != nil || errNew != nil || errOne != nil {
			t.Fatalf("ε=%s rejected: %v / %v / %v", name, errSolve, errNew, errOne)
		}
		pw, err := inc.Solve()
		if err != nil {
			t.Fatal(err)
		}
		for label, got := range map[string]*Placement{"Solve": p, "Incremental": pw, "SolveIncremental": pi} {
			if d := placementDigest(got); d != tc.digest {
				t.Errorf("ε=%s %s: placement digest %#x, want %#x", name, label, d, tc.digest)
			}
		}
	}
}
