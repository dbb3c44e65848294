package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the whole-program taint/provenance engine behind the
// detorder and fpassoc analyzers. It layers on the call graph of
// callgraph.go: per-function taint facts are computed by a flow-insensitive
// fixpoint over each declared function (nested literals analyzed inline, so
// captures flow), folded into per-function summaries bottom-up through the
// Tarjan SCCs of the family graph, and finally re-walked once in report
// mode to collect sink sites and float accumulations with full
// source-to-sink chains.
//
// Sources. Taint is seeded where a VALUE becomes dependent on an order the
// runtime does not fix:
//
//   - append / string-concatenation / text-builder writes under a map range
//     (map-order), a select body (select-order), or a goroutine-order
//     context (go-order: a spawned function literal, or a channel range in
//     a function family that itself spawns goroutines);
//   - results of unseeded math/rand top-level calls (rand) and wall-clock
//     reads (wallclock), tracked for the taint report — the per-package
//     detrand/wallclock analyzers own denying them;
//   - float accumulations under an order context additionally seed order
//     taint on the sum (the rounded value depends on addend order).
//
// Deliberately NOT sources: map/channel range variables themselves (the
// values are deterministic — only their order is not), integer
// accumulations (commutative), and keyed or indexed writes (out[i] = v is
// the order-preserving collection idiom schedule.RunPool uses).
//
// Sanitizers. sort.Strings/Ints/Float64s/Sort/Stable (and the slices
// equivalents) clear order taint from their argument. sort.Slice and
// sort.SliceStable sanitize only when the comparator is total: a
// single-expression `return a < b` comparator over floats leaves ties in
// incoming order, so it does not canonicalize.
//
// Sinks are the exported surfaces the bit-identity wall guards: exported
// returns of hipo.Placement, ScenarioHash inputs, the JSON report writers
// of hipobench/hipoload/expt/loadrun, and servemetrics' Prometheus text
// output. A sink argument reaching the sink while order-tainted — or any
// emission happening inside an order context — is a detorder finding
// unless the function is annotated //hipo:order-invariant <reason>.

// Taint is one provenance kind in the lattice.
type Taint int

const (
	// TaintMapOrder marks values dependent on map iteration order.
	TaintMapOrder Taint = iota
	// TaintGoOrder marks values dependent on goroutine completion or
	// scheduling order.
	TaintGoOrder
	// TaintSelectOrder marks values dependent on select-statement choice.
	TaintSelectOrder
	// TaintRand marks values derived from unseeded global math/rand.
	TaintRand
	// TaintClock marks values derived from the wall clock.
	TaintClock
	NumTaints
)

var taintNames = [NumTaints]string{"map-order", "go-order", "select-order", "rand", "wallclock"}

func (t Taint) String() string {
	if t < 0 || t >= NumTaints {
		return fmt.Sprintf("taint(%d)", int(t))
	}
	return taintNames[t]
}

// TaintSet is a bitmask of Taints.
type TaintSet uint8

// OrderTaints is the subset of the lattice detorder/fpassoc deny at sinks;
// rand/wallclock stay the per-package analyzers' jurisdiction.
const OrderTaints = TaintSet(1<<TaintMapOrder | 1<<TaintGoOrder | 1<<TaintSelectOrder)

// With returns s with t added.
func (s TaintSet) With(t Taint) TaintSet { return s | 1<<t }

// Has reports whether t is in s.
func (s TaintSet) Has(t Taint) bool { return s&(1<<t) != 0 }

// Order returns the order-taint subset of s.
func (s TaintSet) Order() TaintSet { return s & OrderTaints }

// Taints enumerates the members of s in declaration order.
func (s TaintSet) Taints() []Taint {
	var out []Taint
	for t := Taint(0); t < NumTaints; t++ {
		if s.Has(t) {
			out = append(out, t)
		}
	}
	return out
}

func (s TaintSet) String() string {
	if s == 0 {
		return "none"
	}
	var parts []string
	for _, t := range s.Taints() {
		parts = append(parts, t.String())
	}
	return strings.Join(parts, "|")
}

// TaintStep is one hop of a source-to-sink chain.
type TaintStep struct {
	Pos  token.Position
	Note string
}

// TaintChain traces a taint from its source (first step) toward a sink.
type TaintChain struct {
	Steps []TaintStep

	// fixRange remembers the key-only map range the chain's map-order
	// source sits in, so detorder can offer the sorted-keys rewrite.
	fixRange *ast.RangeStmt
	fixPkg   *Package
}

// maxChainSteps caps chains; beyond it intermediate hops are elided.
const maxChainSteps = 8

// extended returns the chain with one more step appended, sharing the
// prefix. The source end is always preserved.
func (c *TaintChain) extended(step TaintStep) *TaintChain {
	if c == nil {
		return &TaintChain{Steps: []TaintStep{step}}
	}
	steps := c.Steps
	if len(steps) >= maxChainSteps {
		steps = steps[:maxChainSteps-1]
	}
	out := &TaintChain{
		Steps:    append(append([]TaintStep(nil), steps...), step),
		fixRange: c.fixRange,
		fixPkg:   c.fixPkg,
	}
	return out
}

// taintVal is the abstract value of one expression: its taints, the
// parameters of the enclosing family root flowing into it, and one sample
// chain per taint kind.
type taintVal struct {
	set    TaintSet
	params uint32
	chains [NumTaints]*TaintChain
}

// or merges w into v, keeping v's chains where both exist (first wins).
func (v *taintVal) or(w taintVal) {
	v.set |= w.set
	v.params |= w.params
	for t := Taint(0); t < NumTaints; t++ {
		if v.chains[t] == nil {
			v.chains[t] = w.chains[t]
		}
	}
}

// source seeds bits on v with a fresh single-step chain at pos.
func (v *taintVal) source(bits TaintSet, pos token.Position, note string, rng *ast.RangeStmt, pkg *Package) {
	v.set |= bits
	for _, t := range bits.Taints() {
		if v.chains[t] == nil {
			c := &TaintChain{Steps: []TaintStep{{Pos: pos, Note: note}}}
			if t == TaintMapOrder {
				c.fixRange, c.fixPkg = rng, pkg
			}
			v.chains[t] = c
		}
	}
}

// TaintSummary is one family root's interprocedural contract.
type TaintSummary struct {
	// Ret is the taint union of every returned value.
	Ret TaintSet
	// RetChains samples one chain per returned taint kind.
	RetChains [NumTaints]*TaintChain
	// ParamToRet marks parameters (receiver first for methods) that flow
	// into some result.
	ParamToRet uint32
	// SinkParams marks parameters that reach a sink inside or below this
	// function; SinkKind names the sink per parameter index.
	SinkParams uint32
	SinkKind   map[int]string
}

// SinkSite is one sink occurrence the report pass observed.
type SinkSite struct {
	// Kind is "placement-return", "scenario-hash", "report-writer", or
	// "prometheus-text".
	Kind string
	Pos  token.Position
	// Func is the family root the sink sits in.
	Func *FuncNode
	// Taints is the order-taint subset reaching the sink; 0 means the sink
	// is proven clean.
	Taints TaintSet
	Chains [NumTaints]*TaintChain
	// Suppressed carries the //hipo:order-invariant reason covering the
	// enclosing function, or "".
	Suppressed string
}

// FloatAccum is one floating-point accumulation whose addend order is
// nondeterministic — an fpassoc finding unless suppressed.
type FloatAccum struct {
	Pos        token.Position
	Func       *FuncNode
	Taints     TaintSet
	Chains     [NumTaints]*TaintChain
	Suppressed string
}

// taintReportPkgs are the packages whose JSON encoding calls count as
// report-writer sinks: exactly the artifact writers the golden fixtures and
// CI diff byte-for-byte.
var taintReportPkgs = map[string]bool{
	"hipo/internal/servemetrics": true,
	"hipo/internal/loadrun":      true,
	"hipo/internal/expt":         true,
	"hipo/cmd/hipobench":         true,
	"hipo/cmd/hipoload":          true,
}

// promTextPkg is the package whose fmt.Fprint* calls emit the Prometheus
// text exposition — a line-diffable sink.
const promTextPkg = "hipo/internal/servemetrics"

// TaintEngine is the computed whole-program taint state.
type TaintEngine struct {
	Prog *Program
	// Summaries maps family roots (declared functions) to their contracts.
	Summaries map[*FuncNode]*TaintSummary
	// Sinks and FloatAccums are the report pass's observations, sorted by
	// position.
	Sinks       []SinkSite
	FloatAccums []FloatAccum

	roots    map[*FuncNode]*FuncNode
	analyses map[*FuncNode]*taintAnalysis
}

// Taint returns the program's taint engine, building it on first use.
func (p *Program) Taint() *TaintEngine {
	if p.taint == nil {
		p.taint = buildTaint(p)
	}
	return p.taint
}

func (e *TaintEngine) rootOf(n *FuncNode) *FuncNode { return e.roots[n] }

// buildTaint runs the bottom-up summary computation and the report pass.
func buildTaint(prog *Program) *TaintEngine {
	eng := &TaintEngine{
		Prog:      prog,
		Summaries: make(map[*FuncNode]*TaintSummary),
		roots:     make(map[*FuncNode]*FuncNode),
		analyses:  make(map[*FuncNode]*taintAnalysis),
	}
	// Family roots: literals belong to the declared function they nest in;
	// $ret nodes have no family.
	for _, n := range prog.SortedFuncs() {
		r := n
		for r != nil && r.Decl == nil && r.Lit != nil {
			r = r.Parent
		}
		if r != nil && r.Decl != nil {
			eng.roots[n] = r
		}
	}
	// Condensed dependency graph over family roots: a caller's summary
	// depends on its callees' summaries.
	rootByKey := make(map[string]*FuncNode)
	adj := make(map[string][]string)
	var rootKeys []string
	for _, n := range prog.SortedFuncs() {
		r := eng.roots[n]
		if r == nil {
			continue
		}
		if _, ok := rootByKey[r.Key]; !ok {
			rootByKey[r.Key] = r
			rootKeys = append(rootKeys, r.Key)
		}
		for _, e := range n.Edges {
			if e.Kind != "calls" && e.Kind != "calls via interface" {
				continue
			}
			if cr := eng.roots[e.Callee]; cr != nil && cr != r {
				adj[r.Key] = append(adj[r.Key], cr.Key)
			}
		}
	}
	sort.Strings(rootKeys)
	// Tarjan emits each SCC after all SCCs it reaches — callees first —
	// which is exactly the bottom-up order summaries need.
	for _, scc := range stringSCCs(rootKeys, adj) {
		members := append([]string(nil), scc...)
		sort.Strings(members)
		for changed := true; changed; {
			changed = false
			for _, key := range members {
				if eng.analyze(rootByKey[key]) {
					changed = true
				}
			}
		}
	}
	// Report pass: facts and summaries are final; collect sinks and float
	// accumulations with chains.
	for _, key := range rootKeys {
		a := eng.analyses[rootByKey[key]]
		if a == nil || a.root.Decl.Body == nil {
			continue
		}
		a.report = true
		a.walk(a.root.Decl.Body, taintCtx{})
		a.report = false
	}
	sort.Slice(eng.Sinks, func(i, j int) bool { return posLess(eng.Sinks[i].Pos, eng.Sinks[j].Pos) })
	sort.Slice(eng.FloatAccums, func(i, j int) bool { return posLess(eng.FloatAccums[i].Pos, eng.FloatAccums[j].Pos) })
	return eng
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// analyze (re-)runs one root's fixpoint and reports whether its summary
// grew — the SCC loop's convergence signal.
func (eng *TaintEngine) analyze(root *FuncNode) bool {
	if root.Decl == nil || root.Decl.Body == nil {
		return false
	}
	a := eng.analyses[root]
	if a == nil {
		a = newTaintAnalysis(eng, root)
		eng.analyses[root] = a
	}
	a.run()
	sum := a.summary()
	old := eng.Summaries[root]
	eng.Summaries[root] = sum
	if old == nil {
		return true
	}
	return old.Ret != sum.Ret || old.ParamToRet != sum.ParamToRet || old.SinkParams != sum.SinkParams
}

// taintCtx is the walker's lexical context.
type taintCtx struct {
	set TaintSet
	// rng is the innermost key-only map range, for the sorted-keys fix.
	rng *ast.RangeStmt
	// lit is the innermost function literal, "" returns belong to it.
	lit *ast.FuncLit
	// loop marks any enclosing loop body.
	loop bool
}

// taintAnalysis is one family root's mutable analysis state. Facts are
// monotone: sets only grow, so the fixpoint terminates.
type taintAnalysis struct {
	eng  *TaintEngine
	root *FuncNode
	pkg  *Package

	edges     map[token.Position][]Edge
	params    map[types.Object]int
	nparams   int
	results   []types.Object
	sanitized map[types.Object]bool
	spawns    bool
	oiReason  string

	vals   map[types.Object]map[string]TaintSet
	chains map[types.Object]*[NumTaints]*TaintChain
	flows  map[types.Object]uint32
	litRet map[*ast.FuncLit]*taintVal

	version    int
	report     bool
	retVal     taintVal
	sinkParams uint32
	sinkKind   map[int]string
}

func newTaintAnalysis(eng *TaintEngine, root *FuncNode) *taintAnalysis {
	a := &taintAnalysis{
		eng:       eng,
		root:      root,
		pkg:       root.Pkg,
		edges:     make(map[token.Position][]Edge),
		params:    make(map[types.Object]int),
		sanitized: make(map[types.Object]bool),
		vals:      make(map[types.Object]map[string]TaintSet),
		chains:    make(map[types.Object]*[NumTaints]*TaintChain),
		flows:     make(map[types.Object]uint32),
		litRet:    make(map[*ast.FuncLit]*taintVal),
		sinkKind:  make(map[int]string),
		oiReason:  root.Pkg.Annotations().OrderInvariant[root.Decl],
	}
	// Family edge index and spawn detection: the root plus every nested
	// literal node.
	for _, n := range eng.Prog.SortedFuncs() {
		if eng.roots[n] != root {
			continue
		}
		if n.Direct.Has(EffGo) {
			a.spawns = true
		}
		for _, e := range n.Edges {
			a.edges[e.Pos] = append(a.edges[e.Pos], e)
		}
	}
	// Parameter indexing: receiver first for methods, then parameters in
	// order; variadic args clamp to the last index.
	idx := 0
	addField := func(f *ast.Field) {
		for _, name := range f.Names {
			if o := a.pkg.Info.Defs[name]; o != nil && idx < 32 {
				a.params[o] = idx
			}
			idx++
		}
		if len(f.Names) == 0 {
			idx++
		}
	}
	if root.Decl.Recv != nil {
		for _, f := range root.Decl.Recv.List {
			addField(f)
		}
	}
	if root.Decl.Type.Params != nil {
		for _, f := range root.Decl.Type.Params.List {
			addField(f)
		}
	}
	a.nparams = idx
	if root.Decl.Type.Results != nil {
		for _, f := range root.Decl.Type.Results.List {
			for _, name := range f.Names {
				a.results = append(a.results, a.pkg.Info.Defs[name])
			}
		}
	}
	a.collectSanitized(root.Decl.Body)
	return a
}

// collectSanitized pre-scans the body for canonicalization calls. Because
// the per-function analysis is flow-insensitive, sanitization is modeled as
// object-level: an object sorted anywhere in the family never carries order
// taint. This trades a sink-before-sort false negative for never flagging
// the repo's pervasive collect-then-sort idiom.
func (a *taintAnalysis) collectSanitized(body *ast.BlockStmt) {
	ast.Inspect(body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch a.selPkgPath(sel) {
		case "sort", "slices":
		default:
			return true
		}
		switch sel.Sel.Name {
		case "Strings", "Ints", "Float64s", "Sort", "Stable", "SortFunc", "SortStableFunc":
		case "Slice", "SliceStable":
			if len(call.Args) == 2 && nonTotalComparator(a.pkg.Info, call.Args[1]) {
				return true // ties keep incoming order: not a canonicalization
			}
		default:
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		if id := baseIdent(call.Args[0]); id != nil {
			if o := a.objOf(id); o != nil {
				a.sanitized[o] = true
			}
		}
		return true
	})
}

// nonTotalComparator reports whether the sort.Slice comparator is a bare
// single float comparison — a non-total order under ties and NaN.
func nonTotalComparator(info *types.Info, cmp ast.Expr) bool {
	lit, ok := unparen(cmp).(*ast.FuncLit)
	if !ok || len(lit.Body.List) != 1 {
		return false
	}
	ret, ok := lit.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	bin, ok := unparen(ret.Results[0]).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.LSS && bin.Op != token.GTR) {
		return false
	}
	return isFloatType(info.TypeOf(bin.X))
}

// run iterates the flow-insensitive walk until facts stop growing.
func (a *taintAnalysis) run() {
	for iter := 0; iter < 16; iter++ {
		a.retVal = taintVal{}
		before := a.version
		a.walk(a.root.Decl.Body, taintCtx{})
		for _, obj := range a.results {
			if obj != nil {
				a.retVal.or(a.readObj(obj))
			}
		}
		if a.version == before {
			return
		}
	}
}

func (a *taintAnalysis) summary() *TaintSummary {
	sum := &TaintSummary{
		Ret:        a.retVal.set,
		RetChains:  a.retVal.chains,
		ParamToRet: a.retVal.params,
		SinkParams: a.sinkParams,
		SinkKind:   a.sinkKind,
	}
	if a.oiReason != "" {
		// The annotation asserts outputs are order-independent; rand and
		// wallclock provenance still propagates.
		sum.Ret &^= OrderTaints
	}
	return sum
}

// walk traverses n, maintaining the order context and processing
// assignments, returns, calls, and returns.
func (a *taintAnalysis) walk(n ast.Node, ctx taintCtx) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.RangeStmt:
			a.rangeStmt(x, ctx)
			return false
		case *ast.ForStmt:
			if x.Init != nil {
				a.walk(x.Init, ctx)
			}
			if x.Cond != nil {
				a.walk(x.Cond, ctx)
			}
			if x.Post != nil {
				a.walk(x.Post, ctx)
			}
			nctx := ctx
			nctx.loop = true
			a.walk(x.Body, nctx)
			return false
		case *ast.SelectStmt:
			nctx := ctx
			nctx.set = nctx.set.With(TaintSelectOrder)
			a.walk(x.Body, nctx)
			return false
		case *ast.GoStmt:
			for _, arg := range x.Call.Args {
				a.walk(arg, ctx)
			}
			if lit, ok := unparen(x.Call.Fun).(*ast.FuncLit); ok {
				nctx := ctx
				nctx.set = nctx.set.With(TaintGoOrder)
				nctx.lit = lit
				nctx.loop = false
				a.walk(lit.Body, nctx)
			} else {
				a.walk(x.Call.Fun, ctx)
			}
			return false
		case *ast.FuncLit:
			nctx := ctx
			nctx.lit = x
			a.walk(x.Body, nctx)
			return false
		case *ast.AssignStmt:
			a.assign(x, ctx)
			return true
		case *ast.ReturnStmt:
			a.ret(x, ctx)
			return true
		case *ast.CallExpr:
			a.callStmt(x, ctx)
			return true
		}
		return true
	})
}

// rangeStmt handles iteration contexts and range-variable propagation.
func (a *taintAnalysis) rangeStmt(x *ast.RangeStmt, ctx taintCtx) {
	a.walk(x.X, ctx)
	cv := a.exprVal(x.X, ctx)
	nctx := ctx
	nctx.loop = true
	if t := a.pkg.Info.TypeOf(x.X); t != nil {
		switch t.Underlying().(type) {
		case *types.Map:
			nctx.set = nctx.set.With(TaintMapOrder)
			if x.Key != nil && x.Value == nil && x.Tok == token.DEFINE {
				nctx.rng = x
			}
		case *types.Chan:
			// Channel arrival order is nondeterministic exactly when several
			// goroutines feed it; approximate by "this family spawns".
			if a.spawns {
				nctx.set = nctx.set.With(TaintGoOrder)
			}
		}
	}
	// The range VALUES are deterministic data; they inherit the
	// container's value taint but no fresh order taint.
	if x.Value != nil {
		a.store(x.Value, cv)
	}
	a.walk(x.Body, nctx)
}

// assign processes one assignment, seeding accumulation sources.
func (a *taintAnalysis) assign(as *ast.AssignStmt, ctx taintCtx) {
	if len(as.Rhs) != len(as.Lhs) {
		// Tuple form x, y := f(): every lhs gets the call's value.
		if len(as.Rhs) == 1 {
			v := a.exprVal(as.Rhs[0], ctx)
			for _, l := range as.Lhs {
				a.store(l, v)
			}
		}
		return
	}
	for i := range as.Lhs {
		lhs, rhs := as.Lhs[i], as.Rhs[i]
		v := a.exprVal(rhs, ctx)
		t := a.pkg.Info.TypeOf(lhs)
		pos := a.pkg.Fset.Position(as.TokPos)
		switch as.Tok {
		case token.DEFINE:
		case token.ASSIGN:
			// s = s + x is the spelled-out accumulation.
			if bin, ok := unparen(rhs).(*ast.BinaryExpr); ok && bin.Op == token.ADD && selfOperand(lhs, bin) {
				a.accumulate(t, &v, pos, ctx)
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
			lv := a.exprVal(lhs, ctx)
			v.or(lv)
			a.accumulate(t, &v, pos, ctx)
		default:
			lv := a.exprVal(lhs, ctx)
			v.or(lv)
		}
		a.store(lhs, v)
	}
}

// accumulate applies the order-dependent accumulation source rules to one
// `+=`-like update of type t.
func (a *taintAnalysis) accumulate(t types.Type, v *taintVal, pos token.Position, ctx taintCtx) {
	switch {
	case isStringType(t):
		if o := ctx.set.Order(); o != 0 {
			v.source(o, pos, "string accumulated under nondeterministic iteration order", ctx.rng, a.pkg)
		}
	case isFloatType(t):
		taints := (ctx.set | v.set).Order()
		if ctx.set.Order() == 0 && !ctx.loop {
			taints = 0 // one-shot add of a tainted scalar is not a reduction
		}
		if taints == 0 {
			return
		}
		if o := ctx.set.Order(); o != 0 {
			v.source(o, pos, "float accumulated under nondeterministic iteration order", ctx.rng, a.pkg)
		}
		if a.report {
			a.eng.FloatAccums = append(a.eng.FloatAccums, FloatAccum{
				Pos:        pos,
				Func:       a.root,
				Taints:     taints,
				Chains:     v.chains,
				Suppressed: a.oiReason,
			})
		}
	}
}

// selfOperand reports whether one operand of bin denotes the same simple
// variable as lhs — the x = x + y accumulation shape.
func selfOperand(lhs ast.Expr, bin *ast.BinaryExpr) bool {
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	for _, op := range []ast.Expr{bin.X, bin.Y} {
		if oid, ok := unparen(op).(*ast.Ident); ok && oid.Name == id.Name {
			return true
		}
	}
	return false
}

// ret folds returned values into the summary and checks Placement sinks.
func (a *taintAnalysis) ret(r *ast.ReturnStmt, ctx taintCtx) {
	if len(r.Results) > 0 {
		var v taintVal
		for _, res := range r.Results {
			v.or(a.exprVal(res, ctx))
		}
		if ctx.lit != nil {
			lr := a.litRet[ctx.lit]
			if lr == nil {
				lr = &taintVal{}
				a.litRet[ctx.lit] = lr
			}
			if lr.set|v.set != lr.set || lr.params|v.params != lr.params {
				a.version++
			}
			lr.or(v)
		} else {
			a.retVal.or(v)
		}
	}
	if ctx.lit != nil || !a.root.Decl.Name.IsExported() {
		return
	}
	for _, res := range r.Results {
		if !isPlacementType(a.pkg.Info.TypeOf(res)) {
			continue
		}
		v := a.exprVal(res, ctx)
		if o := ctx.set.Order(); o != 0 {
			v.source(o, a.pkg.Fset.Position(res.Pos()), "returned from inside nondeterministic iteration", ctx.rng, a.pkg)
		}
		a.recordSink("placement-return", res.Pos(), v)
	}
}

// callStmt handles the statement-level duties of every call site: direct
// sink detection, argument flow into sink parameters of callees, argument
// binding for family-local closure calls, and builder-write propagation
// into external receivers.
func (a *taintAnalysis) callStmt(call *ast.CallExpr, ctx taintCtx) {
	info := a.pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	a.detectSink(call, ctx)
	pos := a.pkg.Fset.Position(call.Pos())
	edges := a.edges[pos]
	for _, e := range edges {
		if e.Kind != "calls" && e.Kind != "calls via interface" {
			continue
		}
		callee := e.Callee
		if callee.Lit != nil && a.eng.rootOf(callee) == a.root {
			a.bindLitArgs(callee.Lit, call, ctx)
			continue
		}
		if callee.Decl == nil {
			continue
		}
		sum := a.eng.Summaries[callee]
		if sum == nil || sum.SinkParams == 0 {
			continue
		}
		a.checkSinkArgs(call, callee, sum, ctx)
	}
	if len(edges) == 0 {
		a.externalReceiverWrite(call, ctx)
	}
}

// checkSinkArgs flags order-tainted arguments handed to parameters the
// callee (transitively) writes to a sink.
func (a *taintAnalysis) checkSinkArgs(call *ast.CallExpr, callee *FuncNode, sum *TaintSummary, ctx taintCtx) {
	recvOffset := 0
	var recvExpr ast.Expr
	if callee.Decl.Recv != nil {
		recvOffset = 1
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			recvExpr = sel.X
		}
	}
	nparams := recvOffset + paramCount(callee.Decl)
	check := func(idx int, arg ast.Expr) {
		if idx >= nparams {
			idx = nparams - 1 // variadic tail
		}
		if idx < 0 || idx >= 32 || sum.SinkParams&(1<<idx) == 0 {
			return
		}
		kind := sum.SinkKind[idx]
		if kind == "" {
			kind = "report-writer"
		}
		v := a.exprVal(arg, ctx)
		if v.params != 0 {
			a.addSinkParams(v.params, kind)
		}
		if a.report && v.set.Order() != 0 {
			var chains [NumTaints]*TaintChain
			step := TaintStep{
				Pos:  a.pkg.Fset.Position(call.Pos()),
				Note: "passed to " + callee.Key + ", which writes it to a " + kind + " sink",
			}
			for _, t := range v.set.Order().Taints() {
				chains[t] = v.chains[t].extended(step)
			}
			a.eng.Sinks = append(a.eng.Sinks, SinkSite{
				Kind:       kind,
				Pos:        a.pkg.Fset.Position(call.Pos()),
				Func:       a.root,
				Taints:     v.set.Order(),
				Chains:     chains,
				Suppressed: a.oiReason,
			})
		}
	}
	if recvExpr != nil {
		check(0, recvExpr)
	}
	for i, arg := range call.Args {
		check(i+recvOffset, arg)
	}
}

func paramCount(fd *ast.FuncDecl) int {
	n := 0
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			if len(f.Names) == 0 {
				n++
			} else {
				n += len(f.Names)
			}
		}
	}
	return n
}

// bindLitArgs flows call-site arguments into a family-local closure's
// parameter objects, so sinks and accumulations inside the closure see the
// taints of every call.
func (a *taintAnalysis) bindLitArgs(lit *ast.FuncLit, call *ast.CallExpr, ctx taintCtx) {
	if lit.Type.Params == nil {
		return
	}
	var objs []types.Object
	for _, f := range lit.Type.Params.List {
		for _, name := range f.Names {
			objs = append(objs, a.pkg.Info.Defs[name])
		}
	}
	for i, arg := range call.Args {
		idx := i
		if idx >= len(objs) {
			idx = len(objs) - 1
		}
		if idx < 0 || objs[idx] == nil {
			continue
		}
		a.set(objs[idx], "", a.exprVal(arg, ctx))
	}
}

// externalReceiverWrite models builder-style externals: the arguments of
// sb.WriteString(x) flow into sb, and under an order context the write
// itself is an ordered text accumulation.
func (a *taintAnalysis) externalReceiverWrite(call *ast.CallExpr, ctx taintCtx) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 || a.selPkgPath(sel) != "" {
		return
	}
	id := baseIdent(sel.X)
	if id == nil {
		return
	}
	obj := a.objOf(id)
	if obj == nil {
		return
	}
	if _, isPkg := obj.(*types.PkgName); isPkg {
		return
	}
	var v taintVal
	for _, arg := range call.Args {
		v.or(a.exprVal(arg, ctx))
	}
	if strings.HasPrefix(sel.Sel.Name, "Write") && isTextBuilder(a.pkg.Info.TypeOf(sel.X)) {
		if o := ctx.set.Order(); o != 0 {
			v.source(o, a.pkg.Fset.Position(call.Pos()), "text written under nondeterministic iteration order", ctx.rng, a.pkg)
		}
	}
	a.set(obj, "", v)
}

// detectSink recognizes direct sink calls and records what reaches them.
func (a *taintAnalysis) detectSink(call *ast.CallExpr, ctx taintCtx) {
	var kind string
	var args []ast.Expr
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f.Name == "ScenarioHash" {
			kind, args = "scenario-hash", call.Args
		}
	case *ast.SelectorExpr:
		name := f.Sel.Name
		pkgPath := a.selPkgPath(f)
		switch {
		case name == "ScenarioHash" && pkgPath == "":
			kind = "scenario-hash"
			args = append([]ast.Expr{f.X}, call.Args...)
		case taintReportPkgs[a.pkg.ImportPath] && pkgPath == "encoding/json" &&
			(name == "Marshal" || name == "MarshalIndent"):
			kind, args = "report-writer", call.Args
		case taintReportPkgs[a.pkg.ImportPath] && name == "Encode" &&
			isNamedType(a.pkg.Info.TypeOf(f.X), "encoding/json", "Encoder"):
			kind, args = "report-writer", call.Args
		case a.pkg.ImportPath == promTextPkg && pkgPath == "fmt" && strings.HasPrefix(name, "Fprint"):
			kind = "prometheus-text"
			if len(call.Args) > 1 {
				args = call.Args[1:]
			}
		}
	}
	if kind == "" {
		return
	}
	var v taintVal
	for _, e := range args {
		v.or(a.exprVal(e, ctx))
	}
	if o := ctx.set.Order(); o != 0 {
		v.source(o, a.pkg.Fset.Position(call.Pos()), "emitted inside nondeterministic iteration order", ctx.rng, a.pkg)
	}
	a.recordSink(kind, call.Pos(), v)
}

// recordSink notes a sink's parameter flows (for summaries) and, in report
// mode, the site itself.
func (a *taintAnalysis) recordSink(kind string, pos token.Pos, v taintVal) {
	if v.params != 0 {
		a.addSinkParams(v.params, kind)
	}
	if !a.report {
		return
	}
	a.eng.Sinks = append(a.eng.Sinks, SinkSite{
		Kind:       kind,
		Pos:        a.pkg.Fset.Position(pos),
		Func:       a.root,
		Taints:     v.set.Order(),
		Chains:     v.chains,
		Suppressed: a.oiReason,
	})
}

func (a *taintAnalysis) addSinkParams(mask uint32, kind string) {
	if a.sinkParams|mask == a.sinkParams {
		return
	}
	a.sinkParams |= mask
	for i := 0; i < 32; i++ {
		if mask&(1<<i) != 0 {
			if _, ok := a.sinkKind[i]; !ok {
				a.sinkKind[i] = kind
			}
		}
	}
	a.version++
}

// ---- expression evaluation ----

func (a *taintAnalysis) exprVal(e ast.Expr, ctx taintCtx) taintVal {
	e = unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if obj := a.objOf(e); obj != nil {
			return a.readObj(obj)
		}
	case *ast.SelectorExpr:
		if a.selPkgPath(e) != "" {
			return taintVal{} // pkg-qualified external name
		}
		if id, ok := unparen(e.X).(*ast.Ident); ok {
			if obj := a.objOf(id); obj != nil {
				if _, isPkg := obj.(*types.PkgName); !isPkg {
					return a.readField(obj, e.Sel.Name)
				}
				return taintVal{}
			}
		}
		if id := baseIdent(e.X); id != nil {
			if obj := a.objOf(id); obj != nil {
				return a.readObj(obj)
			}
		}
		return a.exprVal(e.X, ctx)
	case *ast.CallExpr:
		return a.callVal(e, ctx)
	case *ast.BinaryExpr:
		v := a.exprVal(e.X, ctx)
		v.or(a.exprVal(e.Y, ctx))
		return v
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			// Receives stay clean by design: the collection idiom decides
			// whether arrival order matters (append under a go-order range
			// is the source; out[r.i] = r.v is order-preserving).
			return taintVal{}
		}
		return a.exprVal(e.X, ctx)
	case *ast.StarExpr:
		return a.exprVal(e.X, ctx)
	case *ast.IndexExpr:
		return a.exprVal(e.X, ctx)
	case *ast.IndexListExpr:
		return a.exprVal(e.X, ctx)
	case *ast.SliceExpr:
		return a.exprVal(e.X, ctx)
	case *ast.TypeAssertExpr:
		return a.exprVal(e.X, ctx)
	case *ast.KeyValueExpr:
		return a.exprVal(e.Value, ctx)
	case *ast.CompositeLit:
		var v taintVal
		for _, el := range e.Elts {
			v.or(a.exprVal(el, ctx))
		}
		return v
	}
	return taintVal{}
}

// callVal computes the value a call produces.
func (a *taintAnalysis) callVal(call *ast.CallExpr, ctx taintCtx) taintVal {
	info := a.pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return a.exprVal(call.Args[0], ctx)
		}
		return taintVal{}
	}
	fun := unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return a.builtinVal(id.Name, call, ctx)
		}
	}
	pos := a.pkg.Fset.Position(call.Pos())
	var v taintVal
	resolved := false
	for _, e := range a.edges[pos] {
		if e.Kind != "calls" && e.Kind != "calls via interface" {
			continue
		}
		callee := e.Callee
		switch {
		case callee.Decl != nil:
			resolved = true
			sum := a.eng.Summaries[callee]
			if sum == nil {
				continue // first SCC sweep; the outer loop converges
			}
			if sum.Ret != 0 {
				step := TaintStep{Pos: pos, Note: "returned by " + callee.Key}
				for _, t := range sum.Ret.Taints() {
					if v.chains[t] == nil {
						v.chains[t] = sum.RetChains[t].extended(step)
					}
				}
				v.set |= sum.Ret
			}
			if sum.ParamToRet != 0 {
				a.foldParamToRet(call, callee, sum, ctx, &v)
			}
		case callee.Lit != nil:
			resolved = true
			if a.eng.rootOf(callee) == a.root {
				if lr := a.litRet[callee.Lit]; lr != nil {
					v.or(*lr)
				}
			}
		}
	}
	if !resolved {
		return a.externalCallVal(call, ctx)
	}
	return v
}

// foldParamToRet flows arguments through a callee's param-to-result mask.
func (a *taintAnalysis) foldParamToRet(call *ast.CallExpr, callee *FuncNode, sum *TaintSummary, ctx taintCtx, v *taintVal) {
	recvOffset := 0
	var recvExpr ast.Expr
	if callee.Decl.Recv != nil {
		recvOffset = 1
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			recvExpr = sel.X
		}
	}
	nparams := recvOffset + paramCount(callee.Decl)
	fold := func(idx int, arg ast.Expr) {
		if idx >= nparams {
			idx = nparams - 1
		}
		if idx < 0 || idx >= 32 || sum.ParamToRet&(1<<idx) == 0 {
			return
		}
		v.or(a.exprVal(arg, ctx))
	}
	if recvExpr != nil {
		fold(0, recvExpr)
	}
	for i, arg := range call.Args {
		fold(i+recvOffset, arg)
	}
}

// builtinVal models builtins: append is the canonical ordered accumulation.
func (a *taintAnalysis) builtinVal(name string, call *ast.CallExpr, ctx taintCtx) taintVal {
	switch name {
	case "append":
		var v taintVal
		for _, arg := range call.Args {
			v.or(a.exprVal(arg, ctx))
		}
		if o := ctx.set.Order(); o != 0 {
			v.source(o, a.pkg.Fset.Position(call.Pos()), "appended under nondeterministic iteration order", ctx.rng, a.pkg)
		}
		return v
	case "min", "max":
		var v taintVal
		for _, arg := range call.Args {
			v.or(a.exprVal(arg, ctx))
		}
		return v
	}
	// len/cap/make/new/copy/delete/clear produce order-free values.
	return taintVal{}
}

// externalCallVal models calls outside the program: rand and wall-clock
// sources, plus value propagation through pure-ish helpers (fmt.Sprintf,
// strings.Join, json.Marshal move taints from arguments to results).
func (a *taintAnalysis) externalCallVal(call *ast.CallExpr, ctx taintCtx) taintVal {
	pos := a.pkg.Fset.Position(call.Pos())
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		switch a.selPkgPath(sel) {
		case "time":
			if wallClockFuncs[name] {
				var v taintVal
				v.source(TaintSet(0).With(TaintClock), pos, "wall-clock read time."+name, nil, nil)
				return v
			}
		case "math/rand", "math/rand/v2":
			if globalRandFuncs[name] {
				var v taintVal
				v.source(TaintSet(0).With(TaintRand), pos, "unseeded global rand."+name, nil, nil)
				return v
			}
		case "sort", "slices":
			return taintVal{}
		}
	}
	var v taintVal
	for _, arg := range call.Args {
		v.or(a.exprVal(arg, ctx))
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && a.selPkgPath(sel) == "" {
		// Method on a local value: the receiver's taints surface too
		// (sb.String(), buf.Bytes()).
		v.or(a.exprVal(sel.X, ctx))
	}
	return v
}

// ---- fact storage ----

func (a *taintAnalysis) objOf(id *ast.Ident) types.Object {
	if id.Name == "_" {
		return nil
	}
	if o := a.pkg.Info.Defs[id]; o != nil {
		return o
	}
	return a.pkg.Info.Uses[id]
}

func (a *taintAnalysis) readObj(obj types.Object) taintVal {
	var v taintVal
	for _, s := range a.vals[obj] {
		v.set |= s
	}
	if ch := a.chains[obj]; ch != nil {
		v.chains = *ch
	}
	v.params = a.flows[obj]
	if i, ok := a.params[obj]; ok && i < 32 {
		v.params |= 1 << i
	}
	return v
}

func (a *taintAnalysis) readField(obj types.Object, field string) taintVal {
	var v taintVal
	m := a.vals[obj]
	v.set = m[""] | m[field]
	if ch := a.chains[obj]; ch != nil {
		v.chains = *ch
	}
	v.params = a.flows[obj]
	if i, ok := a.params[obj]; ok && i < 32 {
		v.params |= 1 << i
	}
	return v
}

// set merges v into (obj, field), bumping the fixpoint version on growth.
// Objects sanitized anywhere in the family never take order taint.
func (a *taintAnalysis) set(obj types.Object, field string, v taintVal) {
	if obj == nil {
		return
	}
	if a.sanitized[obj] {
		v.set &^= OrderTaints
	}
	m := a.vals[obj]
	if m == nil {
		m = make(map[string]TaintSet)
		a.vals[obj] = m
	}
	if m[field]|v.set != m[field] {
		m[field] |= v.set
		a.version++
	}
	if v.set != 0 {
		ch := a.chains[obj]
		if ch == nil {
			ch = &[NumTaints]*TaintChain{}
			a.chains[obj] = ch
		}
		for t := Taint(0); t < NumTaints; t++ {
			if ch[t] == nil && v.chains[t] != nil && v.set.Has(t) {
				ch[t] = v.chains[t]
			}
		}
	}
	if a.flows[obj]|v.params != a.flows[obj] {
		a.flows[obj] |= v.params
		a.version++
	}
}

// store writes v to an assignable expression with one-level field
// sensitivity: x.f = v taints only field f of x; keyed and indexed writes
// taint the container's value, never its order.
func (a *taintAnalysis) store(lhs ast.Expr, v taintVal) {
	lhs = unparen(lhs)
	switch l := lhs.(type) {
	case *ast.Ident:
		a.set(a.objOf(l), "", v)
	case *ast.SelectorExpr:
		if id, ok := unparen(l.X).(*ast.Ident); ok {
			if obj := a.objOf(id); obj != nil {
				if _, isPkg := obj.(*types.PkgName); !isPkg {
					a.set(obj, l.Sel.Name, v)
				}
				return
			}
		}
		if id := baseIdent(l.X); id != nil {
			a.set(a.objOf(id), "", v)
		}
	default:
		if id := baseIdent(lhs); id != nil {
			a.set(a.objOf(id), "", v)
		}
	}
}

// ---- small helpers ----

// baseIdent finds the root identifier of a selector/index/deref chain.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		e = unparen(e)
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// selPkgPath returns the import path when sel is a package-qualified name,
// else "".
func (a *taintAnalysis) selPkgPath(sel *ast.SelectorExpr) string {
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := a.pkg.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

func isFloatType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	if !ok {
		if t == nil {
			return false
		}
		b, ok = t.Underlying().(*types.Basic)
		if !ok {
			return false
		}
	}
	return b.Info()&types.IsFloat != 0
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isPlacementType recognizes hipo.Placement (or a pointer to it) by name,
// so fixtures posing their own Placement type exercise the sink.
func isPlacementType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() != nil && n.Obj().Name() == "Placement"
}

// isNamedType reports whether t is (a pointer to) pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// isTextBuilder recognizes strings.Builder and bytes.Buffer receivers.
func isTextBuilder(t types.Type) bool {
	return isNamedType(t, "strings", "Builder") || isNamedType(t, "bytes", "Buffer")
}
