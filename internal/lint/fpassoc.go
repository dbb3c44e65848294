package lint

import "fmt"

// FPAssocAnalyzer reports floating-point accumulations whose addend order
// is nondeterministic: a `sum += x` (or sum = sum + x, sum -= x) reached
// under a map-range, select, or goroutine-order context, or fed addends
// from an order-tainted collection. Float addition is not associative, so
// such a reduction can differ between runs in the last ulps — exactly the
// drift the bit-identity wall exists to catch, but caught statically and
// before it reaches a golden fixture. Order-preserving parallel reductions
// (indexed result slots merged in a deterministic loop, like the chunk
// outputs of pdcs.ExtractAt) are clean by construction; intentionally
// order-free reducers are annotated //hipo:order-invariant <reason>.
var FPAssocAnalyzer = &ProgramAnalyzer{
	Name: "fpassoc",
	Doc: "flags floating-point accumulations whose addend order depends on " +
		"map iteration, goroutine completion, or select choice — float " +
		"addition is not associative, so reassociation drifts the rounded " +
		"sum; restructure into a deterministic reduction order or annotate " +
		"//hipo:order-invariant <reason>",
	Run: runFPAssoc,
}

func runFPAssoc(prog *Program, report func(Diagnostic)) error {
	eng := prog.Taint()
	seen := make(map[string]bool)
	for _, fa := range eng.FloatAccums {
		if fa.Taints == 0 || fa.Suppressed != "" {
			continue
		}
		key := fmt.Sprintf("%s:%d:%d", fa.Pos.Filename, fa.Pos.Line, fa.Pos.Column)
		if seen[key] {
			continue
		}
		seen[key] = true
		report(Diagnostic{
			Analyzer: "fpassoc",
			Pos:      fa.Pos,
			Message: fmt.Sprintf("floating-point accumulation in %s adds its terms in %s-dependent "+
				"order; float addition is not associative, so the rounded sum is nondeterministic — "+
				"accumulate in a deterministic order or annotate //hipo:order-invariant <reason>",
				fa.Func.Key, fa.Taints),
			Related: chainRelated(fa.Taints, fa.Chains),
		})
	}
	return nil
}
