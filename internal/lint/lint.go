// Package lint is the project's static-analysis suite: eight analyzers that
// machine-check the contracts the reproduction depends on but the compiler
// cannot see. The `internal/sim` package doc promises that every run is a
// pure function of configuration and seed; PR 1 fixed a `Uint64() % n`
// modulo-bias bug that had silently skewed every figure by tenths of a
// point. Bug classes like it are cheap to reintroduce by hand and cheap to
// catch by machine, so `cmd/oltpvet` runs this package over the tree in CI.
//
// The per-file analyzers inspect one package at a time:
//
//   - determinism: no wall clock, environment reads, global random sources,
//     or mutated package-level state under internal/.
//   - rngdiscipline: no `%` on RNG.Uint64/Uint32 results (modulo bias) and
//     no constant RNG seeds inside internal/ (seeds flow from config).
//   - zeroguard: no `float64(a)/float64(b)` where the denominator is a
//     counter field or counter accessor without a dominating zero test.
//   - counterowner: stats.MissTable and stats.RunResult counter fields are
//     written only by the stats package's Count*/Add* accumulators.
//   - goroutine: `go` statements under internal/ appear only in the two
//     approved concurrency seams (the experiment worker pool and the job
//     server's worker pool), whose determinism arguments are documented
//     and tested.
//
// The contract analyzers reason about cross-package flows over a Program —
// the whole module loaded at once, with a conservative static call graph
// (direct calls, interface method sets, address-taken functions matched to
// dynamic calls; no pointer analysis) and a fact store analyzers publish to
// during a Collect phase and query during Run:
//
//   - snapshotcomplete: every mutable field of a type with a
//     SaveState/LoadState (or io.Writer/io.Reader Save/Load) pair is
//     referenced by both halves, or carries `//oltpvet:derived <reason>`
//     marking it recomputed on load. Lone pair halves and stale derived
//     annotations are themselves diagnostics.
//   - maporder: no `range` over a map in any function whose results can
//     flow to stats, output, or serialization (fmt, io, os, encoding/*,
//     the stats and snapshot packages, and every snapshot pair method via
//     the fact store). The collect-then-sort idiom and commutative
//     integer/map folds stay quiet.
//   - hotpathalloc: no allocation-prone constructs — formatting, growing
//     appends, escaping composite literals, interface boxing — in
//     functions reachable from core.System.Step, the loop whose
//     0 allocs/op steady state is a benchmark invariant. Functions
//     annotated `//oltpvet:coldpath <reason>` are pruned from the hot set.
//
// A diagnostic can be suppressed with a trailing or immediately preceding
// comment of the form
//
//	//oltpvet:allow <reason>
//
// A standalone marker anchors on the line after its whole comment group, so
// it can sit inside a longer justification. The reason is mandatory for
// allow, derived, and coldpath alike; a bare marker is itself a diagnostic,
// and every derived/coldpath exemption is published as a fact so the test
// suite pins the exact set in force. The suite analyzes non-test files
// only: tests legitimately construct fixtures, poke counters, and use the
// wall clock for timeouts.
//
// Everything here is standard library only (go/ast, go/parser, go/types,
// go/importer); there is no dependency on golang.org/x/tools, so the tool
// builds offline with the bare toolchain.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and documentation.
	Name string
	// Doc explains what the analyzer enforces and why.
	Doc string
	// Collect, when non-nil, runs over every program package before any
	// Run phase, publishing cross-package facts through Pass.Prog.Facts().
	Collect func(*Pass)
	// Run reports diagnostics through the pass.
	Run func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package's import path (e.g. "oltpsim/internal/sim").
	Path  string
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File
	// Prog is the whole-program context (call graph, facts).
	Prog *Program

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Internal reports whether the package under analysis lives below an
// internal/ directory — the scope in which the determinism contract is
// absolute. Command and example packages are configuration roots: a literal
// seed or a wall-clock read there is an explicit user-facing choice.
func (p *Pass) Internal() bool {
	return strings.Contains(p.Path, "internal/")
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

// The annotation vocabulary. Every marker requires a reason; a bare marker
// is itself a diagnostic.
//
//   - allow suppresses one diagnostic on its anchor line;
//   - derived marks a struct field as intentionally absent from its type's
//     SaveState/LoadState pair (recomputed on load: heap mirrors, memo
//     tables, scratch state);
//   - coldpath marks a function that is statically reachable from the hot
//     path but excluded from the steady-state allocation contract
//     (diagnostic-only instrumentation, crash dumps).
const (
	allowPrefix    = "//oltpvet:allow"
	derivedPrefix  = "//oltpvet:derived"
	coldpathPrefix = "//oltpvet:coldpath"
)

// suppress drops diagnostics covered by an //oltpvet:allow comment and
// reports bare annotation markers (allow, derived, coldpath) that carry no
// reason.
//
// An allow anchors on its own comment line-group: it covers diagnostics on
// the comment's line (the trailing-comment form) and on the first line
// after the group ends (the standalone form) — so an allow inside a
// multi-line comment block covers the statement the block is attached to,
// and never a line buried mid-block. Earlier versions anchored on the
// allow comment's own line + 1, which silently missed the statement when
// the allow was not the block's last line.
func suppress(pkg *Package, diags []Diagnostic) []Diagnostic {
	allowed := make(map[string]map[int]bool)
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			groupEnd := pkg.Fset.Position(cg.End()).Line
			for _, c := range cg.List {
				prefix := ""
				for _, p := range []string{allowPrefix, derivedPrefix, coldpathPrefix} {
					// derivedPrefix would also prefix-match a hypothetical
					// longer marker, so require an exact marker word.
					rest, ok := strings.CutPrefix(c.Text, p)
					if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
						prefix = p
						break
					}
				}
				if prefix == "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				reason := strings.TrimSpace(strings.TrimPrefix(c.Text, prefix))
				if reason == "" {
					out = append(out, Diagnostic{
						Pos:      pos,
						Analyzer: "annotation",
						Message:  fmt.Sprintf("%s needs a reason: %s <why>", prefix, prefix),
					})
					continue
				}
				if prefix != allowPrefix {
					continue
				}
				if allowed[pos.Filename] == nil {
					allowed[pos.Filename] = make(map[int]bool)
				}
				allowed[pos.Filename][pos.Line] = true
				allowed[pos.Filename][groupEnd+1] = true
			}
		}
	}
	for _, d := range diags {
		if allowed[d.Pos.Filename][d.Pos.Line] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// All returns the full analyzer suite with production configuration.
func All() []*Analyzer {
	return []*Analyzer{
		NewDeterminism(),
		NewRNGDiscipline(SimPkgPath),
		NewZeroGuard(),
		NewCounterOwner(StatsPkgPath),
		NewGoroutineDiscipline(ApprovedGoroutineFiles),
		NewSnapshotComplete(),
		NewMapOrder(DefaultMapOrderSinks),
		NewHotPathAlloc(DefaultHotRoots),
	}
}

// Canonical paths of the packages whose contracts the suite enforces. The
// analyzer constructors take them as parameters so fixture tests can stand
// up small owner packages under testdata.
const (
	SimPkgPath      = "oltpsim/internal/sim"
	StatsPkgPath    = "oltpsim/internal/stats"
	SnapshotPkgPath = "oltpsim/internal/snapshot"
	CorePkgPath     = "oltpsim/internal/core"
)

// baseIdent unwraps selector, index, star, and paren expressions down to the
// root identifier of an lvalue, or nil if the root is not an identifier.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// namedType unwraps pointers and returns the named type of t, or nil.
func namedType(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isPkgType reports whether t (possibly behind a pointer) is the named type
// pkgPath.name.
func isPkgType(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}
