package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DefaultMapOrderSinks are the packages whose functions count as
// observation points for map iteration order: anything formatted, written,
// accumulated into statistics, or serialized escapes into output the
// determinism contract covers byte-for-byte.
var DefaultMapOrderSinks = []string{
	"fmt",
	"io",
	"os",
	"encoding/json",
	"encoding/csv",
	StatsPkgPath,
	SnapshotPkgPath,
}

const mapOrderName = "maporder"

// NewMapOrder builds the map-order analyzer: it flags `range` over a map in
// any function whose results can flow to stats, output, or serialization.
// Go randomizes map iteration order per run, so such a range is the
// canonical nondeterminism leak the per-file determinism analyzer cannot
// see — the map is fine, the iteration is fine, only the combination with
// an order-sensitive consumer is a bug.
//
// "Flows to" is scoped with the program call graph: a function is in scope
// if it can reach a sink (it feeds output directly) or is callable from a
// sink-reaching function (its results flow upward into one). Sinks are the
// functions of the sink packages plus every snapshot pair method published
// by snapshotcomplete through the fact store.
//
// Two shapes stay quiet because they launder the order away:
//
//   - collect-then-sort: the loop body only appends to a slice that the
//     same function later passes to sort or slices;
//   - commutative accumulation: every statement in the body is an
//     integer += / ++ style fold or a write into another map keyed by the
//     loop key — order-independent by construction.
func NewMapOrder(sinkPkgs []string) *Analyzer {
	mo := &mapOrder{sinks: sinkPkgs}
	return &Analyzer{
		Name: mapOrderName,
		Doc: "no range over a map in functions whose results flow to stats, " +
			"output, or serialization; iterate sorted keys instead",
		Run: mo.run,
	}
}

type mapOrder struct {
	sinks []string

	scopeProg *Program
	scope     map[*Node]bool
}

// scopeFor computes (once per program) the set of functions whose results
// can flow to a sink.
func (mo *mapOrder) scopeFor(prog *Program) map[*Node]bool {
	if mo.scopeProg == prog {
		return mo.scope
	}
	sinkPkg := make(map[string]bool, len(mo.sinks))
	for _, p := range mo.sinks {
		sinkPkg[p] = true
	}
	g := prog.CallGraph()
	var sinks []*Node
	for _, n := range g.Nodes() {
		if n.Fn != nil && n.Fn.Pkg() != nil && sinkPkg[n.Fn.Pkg().Path()] {
			sinks = append(sinks, n)
		}
	}
	for _, f := range prog.Facts().All(snapshotCompleteName) {
		pair, ok := f.Value.(SnapPairFact)
		if !ok {
			continue
		}
		for _, method := range []string{pair.Save, pair.Load} {
			if fn := prog.LookupFunc(f.Pkg, pair.Type, method); fn != nil {
				if n := g.NodeOf(fn); n != nil {
					sinks = append(sinks, n)
				}
			}
		}
	}
	feeders := g.Reaching(sinks, nil)
	roots := make([]*Node, 0, len(feeders))
	for _, n := range g.Nodes() {
		if feeders[n] {
			roots = append(roots, n)
		}
	}
	mo.scopeProg, mo.scope = prog, g.ReachableFrom(roots, nil)
	return mo.scope
}

func (mo *mapOrder) run(pass *Pass) {
	scope := mo.scopeFor(pass.Prog)
	for _, n := range pass.Prog.CallGraph().Nodes() {
		if !scope[n] || n.Pkg == nil || n.Pkg.Path != pass.Path {
			continue
		}
		body := n.Body()
		if body == nil {
			continue
		}
		info := n.Pkg.Info
		// Nested literals are their own nodes (and in scope whenever their
		// creator is), so each range statement is scanned exactly once.
		inspectOwn(n, func(x ast.Node) {
			rs, ok := x.(*ast.RangeStmt)
			if !ok {
				return
			}
			t := info.TypeOf(rs.X)
			if t == nil {
				return
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return
			}
			if mo.collectThenSort(info, n, rs) || commutativeBody(info, rs) {
				return
			}
			pass.Reportf(rs.For,
				"range over map %s in a function whose results flow to stats, output, or serialization; iterate sorted keys (map order is randomized per run)",
				types.ExprString(rs.X))
		})
	}
}

// inspectOwn walks a node's own body, not descending into nested function
// literals (they are separate call-graph nodes).
func inspectOwn(n *Node, f func(ast.Node)) {
	root := n.Body()
	ast.Inspect(root, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		if x != nil {
			f(x)
		}
		return true
	})
}

// collectThenSort recognizes the canonical deterministic-iteration idiom:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Slice(keys, ...)
//
// The body must be a single self-append of the loop key, and the enclosing
// function must pass the slice to the sort or slices package afterwards.
func (mo *mapOrder) collectThenSort(info *types.Info, n *Node, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
		return false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if _, builtin := info.Uses[fn].(*types.Builtin); !builtin {
		return false
	}
	dst := info.ObjectOf(baseIdent(as.Lhs[0]))
	src := info.ObjectOf(baseIdent(call.Args[0]))
	if dst == nil || dst != src {
		return false
	}
	// Every appended value must be a loop variable (key, or key and value).
	keyObj := info.ObjectOf(baseIdent(rs.Key))
	var valObj types.Object
	if rs.Value != nil {
		valObj = info.ObjectOf(baseIdent(rs.Value))
	}
	for _, arg := range call.Args[1:] {
		obj := info.ObjectOf(baseIdent(arg))
		if obj == nil || (obj != keyObj && obj != valObj) {
			return false
		}
	}
	// The slice must reach the sort or slices package later in this
	// function.
	sorted := false
	inspectOwn(n, func(x ast.Node) {
		call, ok := x.(*ast.CallExpr)
		if !ok || sorted {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		callee, _ := info.Uses[sel.Sel].(*types.Func)
		if callee == nil || callee.Pkg() == nil {
			return
		}
		if p := callee.Pkg().Path(); p != "sort" && p != "slices" {
			return
		}
		for _, arg := range call.Args {
			if info.ObjectOf(baseIdent(arg)) == dst {
				sorted = true
				return
			}
		}
	})
	return sorted
}

// commutativeBody reports whether every statement in the range body is an
// order-independent fold: integer compound assignment or increment, or an
// insert/delete into another map keyed by the (unique) loop key.
func commutativeBody(info *types.Info, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	keyObj := info.ObjectOf(baseIdent(rs.Key))
	var stmts func(list []ast.Stmt) bool
	stmts = func(list []ast.Stmt) bool {
		for _, stmt := range list {
			switch st := stmt.(type) {
			case *ast.IncDecStmt:
				if !isIntegerExpr(info, st.X) {
					return false
				}
			case *ast.AssignStmt:
				if !commutativeAssign(info, st, keyObj) {
					return false
				}
			case *ast.ExprStmt:
				call, ok := st.X.(*ast.CallExpr)
				if !ok || !isBuiltinDelete(info, call) {
					return false
				}
				if len(call.Args) != 2 || keyObj == nil || info.ObjectOf(baseIdent(call.Args[1])) != keyObj {
					return false
				}
			case *ast.IfStmt:
				// A side-effect-free guard keeps a commutative body
				// commutative: each iteration's effect still depends only on
				// its own (unique) key and value.
				if st.Init != nil || hasCall(st.Cond) || !stmts(st.Body.List) {
					return false
				}
				if st.Else != nil {
					eb, ok := st.Else.(*ast.BlockStmt)
					if !ok || !stmts(eb.List) {
						return false
					}
				}
			default:
				return false
			}
		}
		return true
	}
	return stmts(rs.Body.List)
}

// hasCall reports whether the expression contains any call — the cheap
// proxy for "may have side effects".
func hasCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(x ast.Node) bool {
		if _, ok := x.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

func commutativeAssign(info *types.Info, st *ast.AssignStmt, keyObj types.Object) bool {
	if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
		return false
	}
	switch st.Tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative and associative only over integers: float addition
		// order changes the rounding, string += is pure concatenation order.
		return isIntegerExpr(info, st.Lhs[0])
	case token.ASSIGN:
		// m2[k] = v: the loop key is unique per iteration, so insertion
		// order cannot matter.
		ix, ok := ast.Unparen(st.Lhs[0]).(*ast.IndexExpr)
		if !ok {
			return false
		}
		if t := info.TypeOf(ix.X); t == nil {
			return false
		} else if _, isMap := t.Underlying().(*types.Map); !isMap {
			return false
		}
		return keyObj != nil && info.ObjectOf(baseIdent(ix.Index)) == keyObj
	}
	return false
}

func isIntegerExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isBuiltinDelete(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "delete" {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}
