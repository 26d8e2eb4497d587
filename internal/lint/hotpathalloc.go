package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotRoot names one entry point of the allocation-free hot path.
type HotRoot struct {
	Pkg    string
	Type   string // empty for a package-level function
	Method string
}

// DefaultHotRoots is the production hot path: everything reachable from the
// per-reference stepping loop, whose 0 allocs/op steady state is the PR-3
// benchmark invariant.
var DefaultHotRoots = []HotRoot{
	{Pkg: CorePkgPath, Type: "System", Method: "Step"},
}

const hotPathAllocName = "hotpathalloc"

// NewHotPathAlloc builds the hot-path allocation analyzer: it computes the
// set of functions reachable from the hot roots through the program call
// graph and flags allocation-prone constructs inside them, turning the
// "0 allocs/op" benchmark number into a reviewable static report that names
// the construct instead of just failing a counter.
//
// Flagged in hot functions:
//
//   - calls into fmt, and method calls on strings.Builder or bytes.Buffer
//     (formatting machinery allocates by design);
//   - append that can grow its backing array per step: appending to a slice
//     allocated in the same function, or an append whose result does not
//     feed back into its source. Self-append to long-lived state
//     (s.queue = append(s.queue, x)) stays quiet — growth is amortized;
//   - composite literals that allocate: &T{...}, and slice or map literals.
//     Plain struct values stay on the stack and stay quiet, as do make and
//     new — the hot path's capacity-gated doubling is amortized by the same
//     argument as self-append;
//   - implicit conversions to interface types that box the value: call
//     arguments, assignments, and returns where a non-pointer-shaped
//     non-constant value meets an interface. Pointer-shaped values
//     (pointers, maps, channels, funcs) fit in the interface word;
//   - func literals that capture a variable of an enclosing function and
//     are stored: as a composite-literal element, on the right of an =
//     assignment, or as a return value. The stored closure outlives the
//     call, so each evaluation allocates it. A literal passed as a call
//     argument or bound with := stays quiet: escape analysis keeps such
//     a closure on the stack when its callee does not retain it.
//
// Escape hatches are explicit: a function annotated
// `//oltpvet:coldpath <reason>` is excluded from the hot set and not
// expanded through (diagnostic-only instrumentation, crash dumps), and the
// arguments of panic are always exempt — by the time they evaluate, the
// run is already lost. Every coldpath annotation is published as a fact so
// the clean-repo pin counts the exemptions.
func NewHotPathAlloc(roots []HotRoot) *Analyzer {
	h := &hotPathAlloc{roots: roots}
	return &Analyzer{
		Name: hotPathAllocName,
		Doc: "no allocation-prone constructs in functions reachable from the " +
			"hot roots (core.System.Step)",
		Collect: h.collect,
		Run:     h.run,
	}
}

type hotPathAlloc struct {
	roots []HotRoot

	hotProg *Program
	hot     map[*Node]bool
}

// collect publishes every //oltpvet:coldpath annotation in the package as a
// fact, keyed by the annotated function, so exemptions are enumerable.
func (h *hotPathAlloc) collect(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			reason, ok := funcAnnotation(fd, coldpathPrefix)
			if !ok || reason == "" {
				continue
			}
			name := fd.Name.Name
			if fn, _ := pass.Info.Defs[fd.Name].(*types.Func); fn != nil {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					if rn := namedType(sig.Recv().Type()); rn != nil {
						name = rn.Origin().Obj().Name() + "." + name
					}
				}
			}
			pass.Prog.Facts().Publish(hotPathAllocName, pass.Path, "coldpath:"+name, reason)
		}
	}
}

// hotFor computes (once per program) the coldpath-pruned hot set.
func (h *hotPathAlloc) hotFor(prog *Program) map[*Node]bool {
	if h.hotProg == prog {
		return h.hot
	}
	g := prog.CallGraph()
	var roots []*Node
	for _, r := range h.roots {
		if fn := prog.LookupFunc(r.Pkg, r.Type, r.Method); fn != nil {
			if n := g.NodeOf(fn); n != nil {
				roots = append(roots, n)
			}
		}
	}
	h.hotProg = prog
	h.hot = g.ReachableFrom(roots, func(n *Node) bool {
		// A coldpath annotation on a declaration also covers the literals it
		// creates: Node.Decl is the lexically enclosing declaration.
		reason, ok := funcAnnotation(n.Decl, coldpathPrefix)
		return ok && reason != ""
	})
	return h.hot
}

func (h *hotPathAlloc) run(pass *Pass) {
	hot := h.hotFor(pass.Prog)
	for _, n := range pass.Prog.CallGraph().Nodes() {
		if !hot[n] || n.Pkg == nil || n.Pkg.Path != pass.Path || n.Body() == nil {
			continue
		}
		h.checkNode(pass, n)
	}
}

func (h *hotPathAlloc) checkNode(pass *Pass, n *Node) {
	info := n.Pkg.Info
	sig := nodeSignature(info, n)
	fresh := freshLocals(info, n)
	// quiet marks expressions a parent construct already judged: append
	// calls accepted as amortized self-appends, composite literals reported
	// once through their & operator.
	quiet := make(map[ast.Node]bool)

	var visit func(x ast.Node) bool
	visit = func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.FuncLit:
			// Nested literals are their own hot-set nodes.
			return false
		case *ast.AssignStmt:
			h.checkAssign(pass, info, e, fresh, quiet)
			if e.Tok == token.ASSIGN {
				h.checkStoredClosures(pass, info, e.Rhs)
			}
		case *ast.ReturnStmt:
			h.checkReturn(pass, info, sig, e)
			h.checkStoredClosures(pass, info, e.Results)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if lit, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					pass.Reportf(e.Pos(), "&%s escapes to the heap in the hot path; reuse long-lived state",
						compactType(info, lit))
					quiet[lit] = true
				}
			}
		case *ast.CompositeLit:
			h.checkStoredClosures(pass, info, e.Elts)
			if quiet[e] {
				return true
			}
			if t := info.TypeOf(e); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(e.Pos(), "%s literal allocates its backing store in the hot path",
						compactType(info, e))
				}
			}
		case *ast.CallExpr:
			if isBuiltinNamed(info, e, "panic") {
				// The run is already lost when panic's arguments evaluate.
				return false
			}
			h.checkCall(pass, info, e, quiet)
		}
		return true
	}
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		if x == nil {
			return false
		}
		return visit(x)
	})
}

// checkStoredClosures reports each func literal among exprs (or among the
// values of key: value elements) that captures a variable of an enclosing
// function.
func (h *hotPathAlloc) checkStoredClosures(pass *Pass, info *types.Info, exprs []ast.Expr) {
	for _, x := range exprs {
		if kv, ok := x.(*ast.KeyValueExpr); ok {
			x = kv.Value
		}
		lit, ok := ast.Unparen(x).(*ast.FuncLit)
		if !ok {
			continue
		}
		if v := capturedVar(info, lit); v != nil {
			pass.Reportf(lit.Pos(), "func literal capturing %s is stored, so it allocates a closure each time in the hot path; keep the action's data in long-lived state",
				v.Name())
		}
	}
}

// capturedVar returns the first variable lit's body uses that an enclosing
// function declares (a receiver, parameter or local), or nil when the
// literal captures nothing and so needs no closure.
func capturedVar(info *types.Info, lit *ast.FuncLit) *types.Var {
	var found *types.Var
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := x.(*ast.Ident); ok {
			v, ok := info.Uses[id].(*types.Var)
			if ok && !v.IsField() && v.Parent() != nil && v.Parent() != v.Pkg().Scope() &&
				(v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
				found = v
			}
		}
		return true
	})
	return found
}

func nodeSignature(info *types.Info, n *Node) *types.Signature {
	if n.Fn != nil {
		sig, _ := n.Fn.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil {
		sig, _ := info.TypeOf(n.Lit).(*types.Signature)
		return sig
	}
	return nil
}

// checkAssign judges append statements and interface-boxing assignments.
func (h *hotPathAlloc) checkAssign(pass *Pass, info *types.Info, st *ast.AssignStmt, fresh map[types.Object]bool, quiet map[ast.Node]bool) {
	for i, rhs := range st.Rhs {
		if len(st.Lhs) == len(st.Rhs) {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinNamed(info, call, "append") && len(call.Args) > 0 {
				if st.Tok == token.ASSIGN && selfAppend(st.Lhs[i], call) {
					base := baseIdent(st.Lhs[i])
					if base == nil || !fresh[info.ObjectOf(base)] {
						// Amortized growth of long-lived state: the allowed
						// idiom.
						quiet[call] = true
					}
				}
				continue
			}
			// Plain assignment into an existing interface-typed location
			// boxes the value. := infers the concrete type, so it cannot.
			if st.Tok == token.ASSIGN {
				h.checkBoxing(pass, info, info.TypeOf(st.Lhs[i]), rhs)
			}
		}
	}
}

// selfAppend reports whether the append's first operand (modulo reslicing,
// as in s.q[:0]) is syntactically the assignment target.
func selfAppend(lhs ast.Expr, call *ast.CallExpr) bool {
	src := ast.Unparen(call.Args[0])
	if sl, ok := src.(*ast.SliceExpr); ok {
		src = sl.X
	}
	return types.ExprString(ast.Unparen(lhs)) == types.ExprString(src)
}

func (h *hotPathAlloc) checkReturn(pass *Pass, info *types.Info, sig *types.Signature, st *ast.ReturnStmt) {
	if sig == nil || len(st.Results) != sig.Results().Len() {
		return
	}
	for i, res := range st.Results {
		h.checkBoxing(pass, info, sig.Results().At(i).Type(), res)
	}
}

func (h *hotPathAlloc) checkCall(pass *Pass, info *types.Info, call *ast.CallExpr, quiet map[ast.Node]bool) {
	// Explicit conversion T(x): only interface targets can allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			h.checkBoxing(pass, info, tv.Type, call.Args[0])
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := info.Uses[id].(*types.Builtin); builtin {
			if id.Name == "append" && !quiet[call] {
				pass.Reportf(call.Pos(),
					"append may grow its backing array each step in the hot path; reuse an amortized buffer (self-append to long-lived state)")
			}
			return
		}
	}
	callee := calleeFunc(info, call)
	if callee != nil && callee.Pkg() != nil {
		if callee.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s formats and allocates in the hot path", callee.Name())
			return
		}
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			if rn := namedType(sig.Recv().Type()); rn != nil && rn.Obj().Pkg() != nil {
				p, t := rn.Obj().Pkg().Path(), rn.Obj().Name()
				if (p == "strings" && t == "Builder") || (p == "bytes" && t == "Buffer") {
					pass.Reportf(call.Pos(), "%s.%s.%s builds strings on the heap in the hot path", p, t, callee.Name())
					return
				}
			}
		}
	}
	// Implicit interface conversions at the call boundary box their
	// arguments.
	sig, _ := info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic():
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt != nil {
			h.checkBoxing(pass, info, pt, arg)
		}
	}
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// checkBoxing reports an implicit conversion of expr to the interface type
// target when the conversion must box: the operand is a concrete,
// non-pointer-shaped, non-constant value. Constants stay quiet — small
// integers box allocation-free through the runtime's static table, and a
// constant at a call site is configuration, not per-step data.
func (h *hotPathAlloc) checkBoxing(pass *Pass, info *types.Info, target types.Type, expr ast.Expr) {
	if target == nil {
		return
	}
	if _, ok := target.(*types.TypeParam); ok {
		return
	}
	if !types.IsInterface(target) {
		return
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return
	}
	at := tv.Type
	if types.IsInterface(at) || pointerShaped(at) {
		return
	}
	if _, ok := at.(*types.TypeParam); ok {
		return
	}
	pass.Reportf(expr.Pos(), "passing %s by value into interface %s boxes it on the heap in the hot path",
		types.TypeString(at, types.RelativeTo(nil)), types.TypeString(target, types.RelativeTo(nil)))
}

// pointerShaped reports whether values of t fit directly in an interface's
// data word without boxing.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isBuiltinNamed(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}

// freshLocals collects the variables a node's own body allocates itself:
// declared here with a make, composite-literal, or zero/nil initializer.
// Appending to one of them grows storage born this call, so the growth is
// never amortized across steps.
func freshLocals(info *types.Info, n *Node) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	freshExpr := func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.CallExpr:
			// make with an explicit capacity is pre-sized: appends bounded
			// by that capacity never grow it, so the author has stated the
			// bound and the allocation itself is judged where it happens.
			return isBuiltinNamed(info, x, "make") && len(x.Args) < 3
		case *ast.Ident:
			return x.Name == "nil" && info.Uses[x] == types.Universe.Lookup("nil")
		}
		return false
	}
	inspectOwn(n, func(x ast.Node) {
		switch st := x.(type) {
		case *ast.AssignStmt:
			if st.Tok != token.DEFINE || len(st.Lhs) != len(st.Rhs) {
				return
			}
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if obj := info.Defs[id]; obj != nil && freshExpr(st.Rhs[i]) {
					fresh[obj] = true
				}
			}
		case *ast.ValueSpec:
			for i, id := range st.Names {
				obj := info.Defs[id]
				if obj == nil {
					continue
				}
				if len(st.Values) == 0 || (i < len(st.Values) && freshExpr(st.Values[i])) {
					fresh[obj] = true
				}
			}
		}
	})
	return fresh
}

// compactType renders a composite literal's type for a diagnostic.
func compactType(info *types.Info, lit *ast.CompositeLit) string {
	if t := info.TypeOf(lit); t != nil {
		return types.TypeString(t, types.RelativeTo(nil))
	}
	return "composite"
}
