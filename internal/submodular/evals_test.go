package submodular

import (
	"math/rand"
	"testing"

	"hipo/internal/hipotrace"
)

// TestLazyGreedyEvalAccounting pins GreedyLazy's gain-evaluation count
// exactly: one evaluation per element for the initial heap, one per lazy
// re-evaluation, and, with AllowRepeat, one per selection for the requeued
// element. No initial gain is ever taken from elsewhere, so a cold and a
// warm solve over the same candidates report the same gain_evals. Every
// fresh hit is a selection, so fresh hits never exceed the selections.
func TestLazyGreedyEvalAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(rng, 12, 60, 3)
		inst.AllowRepeat = trial%3 == 0
		tr := hipotrace.New()
		inst.Tracer = tr
		res := GreedyLazy(inst)

		c := tr.Counters()
		want := int64(len(inst.Elements)) + c["lazy_reevals"]
		if inst.AllowRepeat {
			want += int64(len(res.Selected))
		}
		if c["gain_evals"] != want {
			t.Fatalf("trial %d (repeat %v): gain_evals = %d, want %d elements + %d reevals (+ %d selections if repeat)",
				trial, inst.AllowRepeat, c["gain_evals"], len(inst.Elements), c["lazy_reevals"], len(res.Selected))
		}
		if c["lazy_fresh_hits"] > int64(len(res.Selected)) {
			t.Fatalf("trial %d: lazy_fresh_hits = %d exceeds %d selections",
				trial, c["lazy_fresh_hits"], len(res.Selected))
		}
	}
}
