package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzCFGBuild hammers the CFG builder with arbitrary Go sources — seeded
// with every .go file of this repository plus control-flow-heavy snippets
// — and asserts it never panics and always produces a structurally sound
// graph: indexed blocks, in-graph successors, two-way conditional exits,
// and a Reachable() fixpoint that starts at Entry. Mutated sources that no
// longer parse are fine (the builder only ever sees parsed bodies);
// sources that do parse must build, however mangled their control flow.
func FuzzCFGBuild(f *testing.F) {
	seedRepoSources(f)
	for _, src := range []string{
		"package p\nfunc f(a, b bool) bool { return a && (b || !a) }",
		"package p\nfunc f() { L: for { if true { continue L }; break L }; goto done; done: }",
		"package p\nfunc f(ch chan int) { select { case <-ch: case ch <- 1: default: } }",
		"package p\nfunc f(n int) int { switch n { case 0: fallthrough; case 1: return 1; default: panic(n) }; return 0 }",
		"package p\nfunc f() { defer g(); for i := 0; i < 3; i++ { defer g() } }\nfunc g() {}",
		"package p\nfunc f(xs []int) { for range xs { } ; for _, x := range xs { _ = x } }",
		"package p\nfunc f(v any) int { switch x := v.(type) { case int: return x; case nil: break; default: _ = x }; return 0 }",
		"package p\nfunc f(n int) { top: if n > 0 { n--; goto top } }",
		"package p\nfunc f(ch chan int) { L: for { select { case <-ch: break L; default: continue L } } }",
		"package p\nfunc f(n int) int { switch { case n < 0: return -1; case n == 0: default: return 1 }; for {} }",
		"package p\nfunc f() func() int { return func() int { g := func(b bool) int { if b { return 1 }; return 0 }; return g(true) } }",
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 256<<10 {
			t.Skip("oversized input")
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil || file == nil {
			return
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body // may be nil: declared-only function
			case *ast.FuncLit:
				body = n.Body
			default:
				return true
			}
			checkCFGInvariants(t, NewCFG(body))
			return true
		})
	})
}

// seedRepoSources adds every .go file of the enclosing module as a seed,
// so the fuzzer mutates real-world control flow rather than inventing Go
// from scratch.
func seedRepoSources(f *testing.F) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return
	}
	root := filepath.Dir(gomod)
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if data, err := os.ReadFile(path); err == nil && len(data) < 256<<10 {
			f.Add(data)
		}
		return nil
	})
}

// checkCFGInvariants asserts the structural contract of a built graph.
func checkCFGInvariants(t *testing.T, g *CFG) {
	t.Helper()
	if g == nil || len(g.Blocks) == 0 {
		t.Fatal("CFG has no blocks")
	}
	if g.Entry != g.Blocks[0] {
		t.Fatal("Entry is not Blocks[0]")
	}
	exitInGraph := false
	for i, b := range g.Blocks {
		if b == nil {
			t.Fatalf("Blocks[%d] is nil", i)
		}
		if b.Index != i {
			t.Fatalf("Blocks[%d].Index = %d", i, b.Index)
		}
		if b == g.Exit {
			exitInGraph = true
		}
		for _, s := range b.Succs {
			if s == nil {
				t.Fatalf("block %d has a nil successor", i)
			}
			if s.Index < 0 || s.Index >= len(g.Blocks) || g.Blocks[s.Index] != s {
				t.Fatalf("block %d has an out-of-graph successor", i)
			}
		}
		if b.Cond != nil {
			if len(b.Succs) != 2 {
				t.Fatalf("conditional block %d has %d successors, want 2", i, len(b.Succs))
			}
			if len(b.Nodes) == 0 || b.Nodes[len(b.Nodes)-1] != ast.Node(b.Cond) {
				t.Fatalf("conditional block %d: Cond is not the last node", i)
			}
		}
	}
	if g.Exit == nil || !exitInGraph {
		t.Fatal("Exit missing from Blocks")
	}
	reach := g.Reachable()
	if !reach[g.Entry] {
		t.Fatal("Entry not in its own reachable set")
	}
	for b := range reach {
		if !reach[b] {
			continue
		}
		if b.Index < 0 || b.Index >= len(g.Blocks) || g.Blocks[b.Index] != b {
			t.Fatal("reachable set contains an out-of-graph block")
		}
	}
	// CanReachExit must also converge without panicking on any shape the
	// builder emits (including unreachable cycles).
	_ = g.CanReachExit()
}
