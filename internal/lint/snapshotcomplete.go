package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SnapPairFact is published by snapshotcomplete for every snapshot pair it
// finds: other analyzers (maporder) treat the pair's methods as
// serialization sinks, and the clean-repo pin enumerates the pairs the
// analyzer actually verified so a detection regression cannot pass
// silently.
type SnapPairFact struct {
	// Type is the receiver type's name.
	Type string
	// Save and Load are the method names of the pair (SaveState/LoadState,
	// or Save/Load for the io.Writer/io.Reader container form).
	Save string
	Load string
}

const snapshotCompleteName = "snapshotcomplete"

// NewSnapshotComplete builds the snapshot-coverage analyzer. For every type
// with a snapshot pair — methods SaveState/LoadState, or Save/Load taking
// io.Writer/io.Reader — it verifies that every mutable field is referenced
// by both halves of the pair, where:
//
//   - a field is mutable if any non-constructor function in the package
//     writes it (a constructor is a package-level function whose results
//     include the type; fields it alone writes are configuration, fixed for
//     the life of the value);
//   - a field is referenced by a method if the method or any same-package
//     function it transitively calls (per the program call graph) mentions
//     the field, including mentions through embedded-field promotion;
//   - a field annotated `//oltpvet:derived <reason>` is exempt: it is
//     recomputed on load (heap mirrors, memo tables, scratch buffers), and
//     the annotation is published as a fact so the clean-repo pin can count
//     every exemption.
//
// A type with one half of a pair and not the other is itself a diagnostic:
// state that is saved but never restored (or restorable but never saved) is
// a checkpoint that lies.
func NewSnapshotComplete() *Analyzer {
	sc := &snapshotComplete{pending: make(map[string][]Diagnostic)}
	return &Analyzer{
		Name: snapshotCompleteName,
		Doc: "every mutable field of a type with a SaveState/LoadState pair must be " +
			"referenced by both methods or carry an //oltpvet:derived annotation",
		Collect: sc.collect,
		Run:     sc.run,
	}
}

type snapshotComplete struct {
	// pending holds diagnostics computed during Collect, keyed by package
	// path; the Run phase replays them so suppression and reporting scope
	// apply normally.
	pending map[string][]Diagnostic
}

func (sc *snapshotComplete) run(pass *Pass) {
	*pass.diags = append(*pass.diags, sc.pending[pass.Path]...)
}

// pairMethods accumulates the snapshot methods seen on one type.
type pairMethods struct {
	save, load *types.Func
	saveDecl   *ast.FuncDecl
	loadDecl   *ast.FuncDecl
}

func (sc *snapshotComplete) collect(pass *Pass) {
	sc.pending[pass.Path] = nil
	report := func(pos token.Pos, format string, args ...any) {
		sc.pending[pass.Path] = append(sc.pending[pass.Path], Diagnostic{
			Pos:      pass.Fset.Position(pos),
			Analyzer: snapshotCompleteName,
			Message:  fmt.Sprintf(format, args...),
		})
	}

	byType := make(map[*types.TypeName]*pairMethods)
	var order []*types.TypeName
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			sig := fn.Type().(*types.Signature)
			recv := namedType(sig.Recv().Type())
			if recv == nil {
				continue
			}
			role := snapshotRole(fd.Name.Name, sig)
			if role == 0 {
				continue
			}
			tn := recv.Origin().Obj()
			pm := byType[tn]
			if pm == nil {
				pm = &pairMethods{}
				byType[tn] = pm
				order = append(order, tn)
			}
			if role == roleSave {
				pm.save, pm.saveDecl = fn, fd
			} else {
				pm.load, pm.loadDecl = fn, fd
			}
		}
	}

	for _, tn := range order {
		pm := byType[tn]
		switch {
		case pm.save == nil:
			report(pm.loadDecl.Name.Pos(),
				"%s has %s but no matching save method; a snapshot pair must save what it restores",
				tn.Name(), pm.load.Name())
			continue
		case pm.load == nil:
			report(pm.saveDecl.Name.Pos(),
				"%s has %s but no matching load method; a snapshot pair must restore what it saves",
				tn.Name(), pm.save.Name())
			continue
		}
		sc.checkPair(pass, tn, pm, report)
		pass.Prog.Facts().Publish(snapshotCompleteName, pass.Path, "pair:"+tn.Name(), SnapPairFact{
			Type: tn.Name(),
			Save: pm.save.Name(),
			Load: pm.load.Name(),
		})
	}
}

const (
	roleSave = 1
	roleLoad = 2
)

// snapshotRole classifies a method as the save or load half of a snapshot
// pair, or 0. SaveState/LoadState match by name (their encoder parameter
// shape varies: kernel.Scheduler threads rebind callbacks through its
// pair); Save/Load only match the container form with a leading io.Writer /
// io.Reader, so unrelated Load methods (emitter Load(addr, dep), the lint
// loader's Load(path)) are not mistaken for snapshot halves.
func snapshotRole(name string, sig *types.Signature) int {
	switch name {
	case "SaveState":
		return roleSave
	case "LoadState":
		return roleLoad
	case "Save":
		if sig.Params().Len() > 0 && isPkgType(sig.Params().At(0).Type(), "io", "Writer") {
			return roleSave
		}
	case "Load":
		if sig.Params().Len() > 0 && isPkgType(sig.Params().At(0).Type(), "io", "Reader") {
			return roleLoad
		}
	}
	return 0
}

func (sc *snapshotComplete) checkPair(pass *Pass, tn *types.TypeName, pm *pairMethods, report func(token.Pos, string, ...any)) {
	named, _ := tn.Type().(*types.Named)
	if named == nil {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		// Non-struct pairs (sim.RNG-style wrappers around one value) have no
		// fields to audit; the pair's existence is the contract.
		return
	}
	nf := st.NumFields()
	if nf == 0 {
		return
	}

	fieldPos := make([]token.Pos, nf)
	for i := 0; i < nf; i++ {
		fieldPos[i] = st.Field(i).Pos()
	}
	derived := sc.derivedFields(pass, tn, st)

	fieldIndex := make(map[string]int, nf)
	for i := 0; i < nf; i++ {
		fieldIndex[st.Field(i).Name()] = i
	}
	const (
		inSave = 1 << iota
		inLoad
	)
	covered := make([]int, nf)
	g := pass.Prog.CallGraph()
	mark := func(fn *types.Func, bit int) {
		root := g.NodeOf(fn)
		if root == nil {
			return
		}
		// Field mentions count only in this package: a snapshot method's
		// cross-package callees (the encoder, fmt) cannot see these fields
		// anyway, and restricting the walk keeps it small.
		reach := g.ReachableFrom([]*Node{root}, func(n *Node) bool {
			return n.Pkg == nil || n.Pkg.Path != pass.Path
		})
		for _, n := range g.Sorted(reach) {
			body := n.Body()
			if body == nil {
				continue
			}
			info := n.Pkg.Info
			ast.Inspect(body, func(x ast.Node) bool {
				switch e := x.(type) {
				case *ast.SelectorExpr:
					s, ok := info.Selections[e]
					if !ok || s.Kind() != types.FieldVal {
						return true
					}
					if rn := namedType(s.Recv()); rn == nil || rn.Origin().Obj() != tn {
						return true
					}
					// Index()[0] is the receiver type's own field even when
					// the selection reaches a promoted field through
					// embedding — so serializing through an embedded struct
					// covers it.
					covered[s.Index()[0]] |= bit
				case *ast.CompositeLit:
					// T{F: v, ...} mentions each keyed field; a positional
					// T{a, b, c} must list every field (the compiler enforces
					// it), so it covers all of them. An empty T{} mentions
					// nothing: zeroing is exactly the silent-omission shape
					// this analyzer exists to catch.
					lt := info.TypeOf(e)
					if rn := namedType(lt); rn == nil || rn.Origin().Obj() != tn {
						return true
					}
					for _, elt := range e.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							for i := range covered {
								covered[i] |= bit
							}
							break
						}
						if id, ok := kv.Key.(*ast.Ident); ok {
							if i, ok := fieldIndex[id.Name]; ok {
								covered[i] |= bit
							}
						}
					}
				}
				return true
			})
		}
	}
	mark(pm.save, inSave)
	mark(pm.load, inLoad)

	mutable := sc.mutableFields(pass, tn, nf)

	for i := 0; i < nf; i++ {
		if !mutable[i] || covered[i] == inSave|inLoad {
			continue
		}
		name := st.Field(i).Name()
		if reason, ok := derived[i]; ok && reason != "" {
			pass.Prog.Facts().Publish(snapshotCompleteName, pass.Path,
				fmt.Sprintf("derived:%s.%s", tn.Name(), name), reason)
			continue
		}
		var missing []string
		if covered[i]&inSave == 0 {
			missing = append(missing, pm.save.Name())
		}
		if covered[i]&inLoad == 0 {
			missing = append(missing, pm.load.Name())
		}
		report(fieldPos[i],
			"%s.%s is mutated outside constructors but not referenced by %s; serialize it or annotate //oltpvet:derived <reason>",
			tn.Name(), name, strings.Join(missing, " or "))
	}
	// A derived annotation on a field the pair fully covers is stale: the
	// field is serialized, so the exemption documents nothing.
	for i := 0; i < nf; i++ {
		if reason, ok := derived[i]; ok && reason != "" && mutable[i] && covered[i] == inSave|inLoad {
			report(fieldPos[i],
				"%s.%s carries //oltpvet:derived but is referenced by both %s and %s; drop the stale annotation",
				tn.Name(), st.Field(i).Name(), pm.save.Name(), pm.load.Name())
		}
	}
}

// derivedFields maps field index to the //oltpvet:derived reason found on
// the field's declaration (doc comment or trailing comment). A bare marker
// maps to the empty reason; the suppression scanner reports it.
func (sc *snapshotComplete) derivedFields(pass *Pass, tn *types.TypeName, st *types.Struct) map[int]string {
	out := make(map[int]string)
	spec := sc.typeSpec(pass, tn)
	if spec == nil {
		return out
	}
	stx, ok := spec.Type.(*ast.StructType)
	if !ok {
		return out
	}
	idx := 0
	for _, field := range stx.Fields.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // embedded field
		}
		if reason, ok := fieldAnnotation(field, derivedPrefix); ok {
			for k := 0; k < n; k++ {
				out[idx+k] = reason
			}
		}
		idx += n
	}
	return out
}

func (sc *snapshotComplete) typeSpec(pass *Pass, tn *types.TypeName) *ast.TypeSpec {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if ok && pass.Info.Defs[ts.Name] == tn {
					return ts
				}
			}
		}
	}
	return nil
}

// fieldAnnotation scans a struct field's doc and trailing comments for an
// //oltpvet:<kind> marker and returns its reason.
func fieldAnnotation(field *ast.Field, prefix string) (reason string, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, cut := strings.CutPrefix(c.Text, prefix)
			if cut && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
				return strings.TrimSpace(rest), true
			}
		}
	}
	return "", false
}

// mutableFields reports which fields of tn are written by any
// non-constructor code in the package. Writes inside function literals
// count even when the literal is created inside a constructor: a callback
// built at construction time runs for the life of the value.
func (sc *snapshotComplete) mutableFields(pass *Pass, tn *types.TypeName, nf int) []bool {
	mutable := make([]bool, nf)
	markWrite := func(info *types.Info, e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.SelectorExpr:
				if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
					if rn := namedType(s.Recv()); rn != nil && rn.Origin().Obj() == tn {
						mutable[s.Index()[0]] = true
					}
				}
				e = x.X
			default:
				return
			}
		}
	}
	scanWrites := func(info *types.Info, body ast.Node) {
		ast.Inspect(body, func(x ast.Node) bool {
			switch st := x.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					markWrite(info, lhs)
				}
			case *ast.IncDecStmt:
				markWrite(info, st.X)
			case *ast.CallExpr:
				// copy and clear mutate their first operand in place.
				if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && len(st.Args) > 0 {
					if _, builtin := info.Uses[id].(*types.Builtin); builtin && (id.Name == "copy" || id.Name == "clear") {
						markWrite(info, st.Args[0])
					}
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn != nil && fd.Recv == nil && returnsType(fn.Type().(*types.Signature), tn) {
				// Constructor: its own writes are initialization, but any
				// literal it creates outlives it.
				ast.Inspect(fd.Body, func(x ast.Node) bool {
					if lit, ok := x.(*ast.FuncLit); ok {
						scanWrites(pass.Info, lit.Body)
						return false
					}
					return true
				})
				continue
			}
			scanWrites(pass.Info, fd.Body)
		}
	}
	return mutable
}

// returnsType reports whether the signature's results include tn (by value
// or pointer) — the shape of a constructor.
func returnsType(sig *types.Signature, tn *types.TypeName) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if rn := namedType(res.At(i).Type()); rn != nil && rn.Origin().Obj() == tn {
			return true
		}
	}
	return false
}
