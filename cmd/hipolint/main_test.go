package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hipo/internal/lint"
)

// moduleRoot locates the repository root so the test is independent of the
// package directory it runs from.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}

// chdirModuleRoot moves the test into the repository root for the duration
// of the test, so package patterns like ./... resolve the whole module.
func chdirModuleRoot(t *testing.T) {
	t.Helper()
	root := moduleRoot(t)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSuiteCleanOnRepository is the acceptance gate: the full analyzer
// suite must produce zero diagnostics on the repository's own tree.
func TestSuiteCleanOnRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module; skipped in -short mode")
	}
	chdirModuleRoot(t)
	report := filepath.Join(t.TempDir(), "effects.json")
	taintPath := filepath.Join(t.TempDir(), "taint.json")
	var out, errw bytes.Buffer
	code := runStandalone([]string{"-effect-report", report, "-taint-report", taintPath, "./..."}, &out, &errw)
	if code != 0 {
		t.Errorf("hipolint ./... exited %d; diagnostics:\n%s%s", code, out.String(), errw.String())
	}
	// The same run must leave an effect report naming every annotated hot
	// root as clean — the CI drift guard consumes exactly this file.
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("effect report not written: %v", err)
	}
	var rep struct {
		Schema string `json:"schema"`
		Roots  []struct {
			Func  string `json:"func"`
			Clean bool   `json:"clean"`
		} `json:"roots"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("effect report does not parse: %v", err)
	}
	if rep.Schema != lint.EffectReportSchema {
		t.Errorf("report schema = %q, want %q", rep.Schema, lint.EffectReportSchema)
	}
	roots := map[string]bool{}
	for _, r := range rep.Roots {
		roots[r.Func] = true
		if !r.Clean {
			t.Errorf("hot-path root %s is not clean", r.Func)
		}
	}
	for _, want := range []string{
		"hipo/internal/pdcs.Extract",
		"hipo/internal/pdcs.ExtractAt",
		"hipo/internal/pdcs.ExtractAll",
		"hipo/internal/discretize.CandidatePositions",
		"hipo/internal/submodular.GreedyLazy",
		"hipo/internal/visindex.Ensure",
	} {
		if !roots[want] {
			t.Errorf("effect report is missing hot-path root %s", want)
		}
	}
	// The taint report from the same run must prove the bit-identity sinks
	// clean and inventory the //hipo:order-invariant contracts.
	tdata, err := os.ReadFile(taintPath)
	if err != nil {
		t.Fatalf("taint report not written: %v", err)
	}
	var trep struct {
		Schema string `json:"schema"`
		Sinks  []struct {
			Kind  string `json:"kind"`
			Clean bool   `json:"clean"`
		} `json:"sinks"`
		OrderInvariant []struct {
			Func   string `json:"func"`
			Reason string `json:"reason"`
		} `json:"orderInvariant"`
		Findings map[string]int `json:"findings"`
	}
	if err := json.Unmarshal(tdata, &trep); err != nil {
		t.Fatalf("taint report does not parse: %v", err)
	}
	if trep.Schema != lint.TaintReportSchema {
		t.Errorf("taint report schema = %q, want %q", trep.Schema, lint.TaintReportSchema)
	}
	clean := 0
	for _, s := range trep.Sinks {
		if !s.Clean {
			t.Errorf("taint report has a dirty %s sink", s.Kind)
		} else {
			clean++
		}
	}
	if clean < 3 {
		t.Errorf("taint report proves %d sinks clean, want at least 3", clean)
	}
	annotated := map[string]bool{}
	for _, oi := range trep.OrderInvariant {
		annotated[oi.Func] = true
		if oi.Reason == "" {
			t.Errorf("order-invariant entry %s lost its reason", oi.Func)
		}
	}
	if !annotated["hipo/internal/pdcs.(streamReducer).reduce"] {
		t.Errorf("order-invariant inventory %v is missing pdcs.(streamReducer).reduce", annotated)
	}
	for _, a := range []string{"detorder", "fpassoc", "sharedwrite"} {
		if n := trep.Findings[a]; n != 0 {
			t.Errorf("taint report counts %d surviving %s findings, want 0", n, a)
		}
	}
}

// TestSARIFOutput runs the suite on a small package with -format=sarif and
// checks the log parses and carries a rule descriptor per analyzer.
func TestSARIFOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("loads module export data; skipped in -short mode")
	}
	chdirModuleRoot(t)
	var out, errw bytes.Buffer
	if code := runStandalone([]string{"-format=sarif", "./internal/model"}, &out, &errw); code != 0 {
		t.Fatalf("-format=sarif exited %d: %s", code, errw.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []any `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version=%q runs=%d, want 2.1.0 with one run", log.Version, len(log.Runs))
	}
	rules := map[string]bool{}
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		rules[r.ID] = true
	}
	for _, a := range lint.Analyzers() {
		if !rules[a.Name] {
			t.Errorf("SARIF log missing rule descriptor for %q", a.Name)
		}
	}
}

// TestBaselineGate: the committed baseline must verify cleanly against the
// tree (exit 0), and an unknown-schema file must be rejected.
func TestBaselineGate(t *testing.T) {
	if testing.Short() {
		t.Skip("loads module export data; skipped in -short mode")
	}
	chdirModuleRoot(t)
	var out, errw bytes.Buffer
	if code := runStandalone([]string{"-baseline", ".hipolint-baseline.json", "./internal/model"}, &out, &errw); code != 0 {
		t.Errorf("-baseline gate exited %d:\n%s%s", code, out.String(), errw.String())
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errw.Reset()
	if code := runStandalone([]string{"-baseline", bad, "./internal/model"}, &out, &errw); code != 2 {
		t.Errorf("bad baseline schema exited %d, want 2", code)
	}
}

// TestWriteBaselineSnapshot: -write-baseline on a clean package produces a
// schema-tagged empty snapshot and exits 0.
func TestWriteBaselineSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("loads module export data; skipped in -short mode")
	}
	chdirModuleRoot(t)
	path := filepath.Join(t.TempDir(), "base.json")
	var out, errw bytes.Buffer
	if code := runStandalone([]string{"-write-baseline", path, "./internal/model"}, &out, &errw); code != 0 {
		t.Fatalf("-write-baseline exited %d: %s", code, errw.String())
	}
	b, err := lint.ReadBaselineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Findings) != 0 {
		t.Errorf("snapshot has %d findings on a clean package, want 0", len(b.Findings))
	}
}

func TestListAnalyzers(t *testing.T) {
	var out, errw bytes.Buffer
	if code := runStandalone([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errw.String())
	}
	for _, name := range []string{"floatcmp", "detrand", "wallclock", "ctxflow", "errdrop", "anglesafe", "mutexguard", "nanflow", "goroleak"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
	// Whole-program analyzers are listed too, tagged with their layer so
	// users know they are unavailable under go vet.
	for _, name := range []string{"hotpath", "lockorder", "ctxprop", "detorder", "fpassoc", "sharedwrite"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing program analyzer %q:\n%s", name, out.String())
		}
	}
	for _, tag := range []string{"[package]", "[program]"} {
		if !strings.Contains(out.String(), tag) {
			t.Errorf("-list output missing layer tag %q:\n%s", tag, out.String())
		}
	}
}

func TestSelectAnalyzersRejectsProgramNames(t *testing.T) {
	// The vet entry point can only run per-package analyzers; asking it for
	// a whole-program one must fail loudly, not silently no-op.
	if _, err := selectAnalyzers("hotpath"); err == nil || !strings.Contains(err.Error(), "whole-program") {
		t.Errorf("selectAnalyzers(hotpath) = %v, want whole-program error", err)
	}
}

func TestSelectAnalyzers(t *testing.T) {
	as, err := selectAnalyzers("floatcmp, errdrop")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "floatcmp" || as[1].Name != "errdrop" {
		t.Errorf("selectAnalyzers = %v, want [floatcmp errdrop]", as)
	}
	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Error("selectAnalyzers(nosuch) succeeded, want error")
	}
}

func TestUnknownAnalyzerFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if code := runStandalone([]string{"-only", "bogus", "./..."}, &out, &errw); code != 2 {
		t.Errorf("unknown analyzer exited %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "unknown analyzer") {
		t.Errorf("stderr = %q, want unknown-analyzer message", errw.String())
	}
}
