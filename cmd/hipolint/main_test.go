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
	chdir(t, moduleRoot(t))
}

// chdir moves the test into dir for the duration of the test.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// hotRoots reads the hot-root list CI's drift guards also read,
// cmd/hipolint/hotroots.txt, from the module root: one function key per
// line, blank lines and #-comments skipped.
func hotRoots(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("cmd", "hipolint", "hotroots.txt"))
	if err != nil {
		t.Fatalf("hot-root list: %v", err)
	}
	var roots []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			roots = append(roots, line)
		}
	}
	if len(roots) == 0 {
		t.Fatal("hot-root list is empty")
	}
	return roots
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
	required := hotRoots(t)
	for _, want := range required {
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
		Roots  []struct {
			Func       string `json:"func"`
			OrderClean bool   `json:"orderClean"`
		} `json:"roots"`
		Sinks []struct {
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
	orderClean := map[string]bool{}
	for _, r := range trep.Roots {
		orderClean[r.Func] = r.OrderClean
		if !r.OrderClean {
			t.Errorf("hot-path root %s has order-tainted returns", r.Func)
		}
	}
	for _, want := range required {
		if _, ok := orderClean[want]; !ok {
			t.Errorf("taint report is missing hot-path root %s", want)
		}
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

// TestRelatedLocationsPrinted runs a whole-program analyzer on a scratch
// module and checks that the text output lists the finding's supporting
// locations — the hot path's call chain and the effect's origin — one
// tab-indented file:line:col line each, directly under the finding.
func TestRelatedLocationsPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a scratch module; skipped in -short mode")
	}
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module relmod\n\ngo 1.22\n",
		"a.go": `package relmod

import "time"

var sink time.Time

func stamp() { sink = time.Now() }

func middle() { stamp() }

//hipo:hotpath
func Root() { middle() }
`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	chdir(t, dir)
	var out, errw bytes.Buffer
	if code := runStandalone([]string{"-only", "hotpath", "./..."}, &out, &errw); code != 1 {
		t.Fatalf("hipolint exited %d, want 1:\n%s%s", code, out.String(), errw.String())
	}
	file := filepath.Join(dir, "a.go")
	want := []string{
		file + ":12:6: hotpath: hot path root relmod.Root reaches denied effect(s) wallclock",
		"\t" + file + ":12:15: relmod.Root calls relmod.middle",
		"\t" + file + ":9:17: relmod.middle calls relmod.stamp",
		"\t" + file + ":7:23: wallclock effect originates here",
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("got %d output lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], w)
		}
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
	// Whole-program analyzers are listed too, tagged with their layer.
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

func TestSelectAnalyzers(t *testing.T) {
	as, ps, err := selectSuites("floatcmp, errdrop")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "floatcmp" || as[1].Name != "errdrop" || len(ps) != 0 {
		t.Errorf("selectSuites = %v, %v, want [floatcmp errdrop], []", as, ps)
	}
	if _, _, err := selectSuites("nosuch"); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Errorf("selectSuites(nosuch) = %v, want unknown-analyzer error", err)
	}
}

func TestSelectAnalyzersAcceptsProgramNames(t *testing.T) {
	// A whole-program name selects that program analyzer alone, and may be
	// mixed with per-package names.
	as, ps, err := selectSuites("hotpath,errdrop")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 || as[0].Name != "errdrop" || len(ps) != 1 || ps[0].Name != "hotpath" {
		t.Errorf("selectSuites(hotpath,errdrop) = %v, %v, want [errdrop], [hotpath]", as, ps)
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
