// Package lint is a small, dependency-free static-analysis framework plus
// the suite of domain-aware analyzers that enforce this repository's
// correctness invariants: ε-tolerant float comparisons in geometry code,
// deterministic randomness in solver paths, no wall-clock reads inside the
// deterministic pipeline, context propagation, no silently dropped errors,
// and no degree/radian confusion around trig calls.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite can be ported to the upstream framework
// verbatim if that dependency ever becomes available; the container this
// repo grows in has no module cache, so everything here is built on the
// standard library only (go/ast, go/types, and export data produced by
// `go list -export`).
//
// Diagnostics are suppressed with a sibling comment:
//
//	//lint:ignore <analyzer> <reason>
//
// placed either on the flagged line or on the line immediately above it.
// The reason is mandatory; an ignore directive without one is itself
// reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check. The shape intentionally matches
// x/tools/go/analysis.Analyzer minus the fact/requires machinery, which
// this suite does not need.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-paragraph description: what is flagged and why the
	// invariant matters to the placement pipeline.
	Doc string
	// Applies reports whether the analyzer should run on the package with
	// the given import path. A nil Applies means "every package".
	Applies func(importPath string) bool
	// Run inspects one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one package's parsed and type-checked representation to an
// analyzer, along with the diagnostic sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Package, when set, is the full loaded package, giving analyzers
	// access to parsed //hipo: annotations.
	Package *Package

	diags *[]Diagnostic
}

// Diagnostic is one finding, located by Position for stable sorting and
// printing. Fixes, when present, are machine-applicable resolutions
// applied by `hipolint -fix`.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Fixes    []SuggestedFix
	// Related locates the supporting evidence of interprocedural findings
	// (call-chain steps, effect origins); hipolint prints each one as an
	// indented file:line:col line under its finding.
	Related []RelatedPos
}

// RelatedPos is one supporting location of a diagnostic.
type RelatedPos struct {
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FloatCmpAnalyzer,
		DetRandAnalyzer,
		WallClockAnalyzer,
		CtxFlowAnalyzer,
		ErrDropAnalyzer,
		AngleSafeAnalyzer,
		MutexGuardAnalyzer,
		NaNFlowAnalyzer,
		GoroLeakAnalyzer,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers applies each analyzer whose Applies accepts pkg's import
// path, filters suppressed findings, and returns the surviving diagnostics
// sorted by position. Malformed //lint:ignore directives are appended as
// diagnostics of the pseudo-analyzer "lintdirective".
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(pkg.ImportPath) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Package:  pkg,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	ign, bad := collectIgnores(pkg.Fset, pkg.Files)
	kept := diags[:0]
	for _, d := range diags {
		if !ign.suppressed(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, bad...)
	// Malformed //hipo: directives surface through the same channel as
	// malformed //lint:ignore comments: unsuppressible lintdirective
	// diagnostics.
	kept = append(kept, pkg.Annotations().Bad...)
	SortDiagnostics(kept)
	return kept, nil
}

// pathHasPrefix reports whether path is pkg or lies under the pkg/ subtree.
func pathHasPrefix(path, pkg string) bool {
	return path == pkg || strings.HasPrefix(path, pkg+"/")
}

// isCommandPackage reports whether the import path belongs to a cmd or
// examples tree, where operational code (flag parsing, wall-clock, root
// contexts) is expected.
func isCommandPackage(path string) bool {
	return strings.Contains(path, "/cmd/") || pathHasPrefix(path, "hipo/cmd") ||
		strings.Contains(path, "/examples/") || pathHasPrefix(path, "hipo/examples")
}
