// Command hipolint runs the repository's domain-aware static-analysis
// suite (internal/lint): nine per-package analyzers (floatcmp, detrand,
// wallclock, ctxflow, errdrop, anglesafe, mutexguard, nanflow, goroleak)
// plus six whole-program analyzers built on the interprocedural
// call-graph, effect-summary, and taint engines (hotpath, lockorder,
// ctxprop, detorder, fpassoc, sharedwrite) — fifteen in all — over the
// whole module or a subset of its packages:
//
//	go run ./cmd/hipolint ./...
//	go run ./cmd/hipolint -only floatcmp,errdrop ./internal/geom
//	go run ./cmd/hipolint -only hotpath ./...        # whole-program only
//	go run ./cmd/hipolint -fix ./...                 # apply suggested fixes
//	go run ./cmd/hipolint -effect-report effects.json ./...
//	go run ./cmd/hipolint -taint-report taint.json ./...
//
// Each finding prints as `file:line:col: analyzer: message`, followed by
// one tab-indented `file:line:col: message` line per supporting location
// (a hot path's call chain, a taint's source-to-sink chain, a lock
// cycle's acquisitions).
//
// Package loading and per-package analysis run on GOMAXPROCS workers;
// output order is deterministic regardless of worker scheduling.
//
// Exit status: 0 when no diagnostics, 1 when findings are reported, 2 on
// operational errors. Suppress individual findings with
// `//lint:ignore <analyzer> <reason>` on or directly above the flagged
// line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"hipo/internal/lint"
	"hipo/internal/schedule"
)

// printf writes CLI output with an explicit error discard: a failed write
// to the user's terminal is not actionable beyond the exit code.
func printf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func main() {
	os.Exit(runStandalone(os.Args[1:], os.Stdout, os.Stderr))
}

// runStandalone loads the module around the working directory and applies
// the suite to every listed package.
func runStandalone(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("hipolint", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		only         = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
		list         = fs.Bool("list", false, "list analyzers and exit")
		fix          = fs.Bool("fix", false, "apply machine-suggested fixes to the source files")
		effectReport = fs.String("effect-report", "", "write the //hipo:hotpath effect-summary report (JSON) to this file")
		taintReport  = fs.String("taint-report", "", "write the order-taint sink report (hipolint-taint/v1 JSON) to this file")
	)
	fs.Usage = func() {
		printf(errw, "usage: hipolint [-only name,...] [-list] [-fix] [-effect-report file] [-taint-report file] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			printf(out, "%-10s [package] %s\n", a.Name, a.Doc)
		}
		for _, a := range lint.ProgramAnalyzers() {
			printf(out, "%-10s [program] %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, progAnalyzers, err := selectSuites(*only)
	if err != nil {
		printf(errw, "hipolint: %v\n", err)
		return 2
	}
	workers := runtime.GOMAXPROCS(0)
	pkgs, err := lint.LoadModuleParallel(".", fs.Args(), workers)
	if err != nil {
		printf(errw, "hipolint: %v\n", err)
		return 2
	}
	diags, err := runPerPackage(pkgs, analyzers, workers)
	if err != nil {
		printf(errw, "hipolint: %v\n", err)
		return 2
	}
	if len(progAnalyzers) > 0 || *effectReport != "" || *taintReport != "" {
		prog := lint.BuildProgram(pkgs)
		pds, err := lint.RunProgramAnalyzers(prog, progAnalyzers)
		if err != nil {
			printf(errw, "hipolint: %v\n", err)
			return 2
		}
		diags = append(diags, pds...)
		if *effectReport != "" {
			if err := writeEffectReport(*effectReport, prog); err != nil {
				printf(errw, "hipolint: %v\n", err)
				return 2
			}
		}
		if *taintReport != "" {
			if err := writeTaintReport(*taintReport, prog); err != nil {
				printf(errw, "hipolint: %v\n", err)
				return 2
			}
		}
	}
	lint.SortDiagnostics(diags)

	if *fix {
		updated, dropped, err := lint.ApplyFixes(diags)
		if err != nil {
			printf(errw, "hipolint: %v\n", err)
			return 2
		}
		for file, src := range updated {
			if err := os.WriteFile(file, src, 0o644); err != nil {
				printf(errw, "hipolint: %v\n", err)
				return 2
			}
		}
		if len(updated) > 0 {
			printf(errw, "hipolint: fixed %d file(s)\n", len(updated))
		}
		// Diagnostics whose fix landed are resolved; the rest — no fix
		// attached, or the fix conflicted with another edit — still count.
		diags = unfixedDiagnostics(diags, dropped)
	}

	for _, d := range diags {
		printf(out, "%s\n", d)
		for _, r := range d.Related {
			printf(out, "\t%s:%d:%d: %s\n", r.Pos.Filename, r.Pos.Line, r.Pos.Column, r.Message)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// runPerPackage applies the per-package analyzers to every package on a
// worker pool. Diagnostics come back concatenated in package order, so
// the output is independent of worker scheduling.
func runPerPackage(pkgs []*lint.Package, analyzers []*lint.Analyzer, workers int) ([]lint.Diagnostic, error) {
	if len(analyzers) == 0 {
		return nil, nil
	}
	type result struct {
		diags []lint.Diagnostic
		err   error
	}
	results := schedule.RunPool(len(pkgs), workers, func(i int) result {
		diags, err := lint.RunAnalyzers(pkgs[i], analyzers)
		return result{diags, err}
	})
	var diags []lint.Diagnostic
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		diags = append(diags, r.diags...)
	}
	return diags, nil
}

// writeEffectReport builds the hot-path effect report for prog and writes
// it to path.
func writeEffectReport(path string, prog *lint.Program) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rep := lint.BuildEffectReport(prog)
	if err := lint.WriteEffectReport(f, rep); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// writeTaintReport builds the order-taint sink report for prog and writes
// it to path.
func writeTaintReport(path string, prog *lint.Program) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rep, err := lint.BuildTaintReport(prog)
	if err != nil {
		_ = f.Close()
		return err
	}
	if err := lint.WriteTaintReport(f, rep); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// unfixedDiagnostics keeps the diagnostics -fix could not resolve: those
// with no suggested fix, plus those whose fix was dropped for overlapping
// another edit.
func unfixedDiagnostics(diags, dropped []lint.Diagnostic) []lint.Diagnostic {
	droppedSet := make(map[string]bool, len(dropped))
	for _, d := range dropped {
		droppedSet[d.String()] = true
	}
	var out []lint.Diagnostic
	for _, d := range diags {
		if len(d.Fixes) == 0 || droppedSet[d.String()] {
			out = append(out, d)
		}
	}
	return out
}

// selectSuites resolves the -only flag against both suites. An empty flag
// selects everything.
func selectSuites(only string) ([]*lint.Analyzer, []*lint.ProgramAnalyzer, error) {
	if only == "" {
		return lint.Analyzers(), lint.ProgramAnalyzers(), nil
	}
	var as []*lint.Analyzer
	var ps []*lint.ProgramAnalyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if a := lint.ByName(name); a != nil {
			as = append(as, a)
			continue
		}
		if p := lint.ProgramByName(name); p != nil {
			ps = append(ps, p)
			continue
		}
		return nil, nil, fmt.Errorf("unknown analyzer %q", name)
	}
	return as, ps, nil
}
