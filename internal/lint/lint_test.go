package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testLoader builds a loader rooted at this module. Loaders cache packages,
// so each test gets its own to keep fixtures independent.
func testLoader(t *testing.T) *Loader {
	t.Helper()
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	return ld
}

const fixturePrefix = "oltpsim/internal/lint/testdata/"

var wantRe = regexp.MustCompile(`"([^"]*)"`)

// wantsOf extracts `// want "substring"` expectations from a fixture,
// keyed by file:line of the comment.
func wantsOf(pkg *Package) map[string][]string {
	wants := make(map[string][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
					wants[key] = append(wants[key], m[1])
				}
			}
		}
	}
	return wants
}

// TestAnalyzersOnFixtures is the table-driven failing-fixture suite: each
// analyzer must catch its target pattern (including the `Uint64() % n`
// regression that PR 1 fixed) and stay quiet on the legal variants beside
// it.
func TestAnalyzersOnFixtures(t *testing.T) {
	ownerFixture := fixturePrefix + "counterowner/counters"
	cases := []struct {
		fixture   string
		analyzers []*Analyzer
	}{
		{"determinism", []*Analyzer{NewDeterminism()}},
		{"rngdiscipline", []*Analyzer{NewRNGDiscipline(SimPkgPath)}},
		{"zeroguard", []*Analyzer{NewZeroGuard()}},
		{"counterowner/counters", []*Analyzer{NewCounterOwner(ownerFixture)}},
		{"counterowner", []*Analyzer{NewCounterOwner(ownerFixture)}},
		{"counterowner/real", []*Analyzer{NewCounterOwner(StatsPkgPath)}},
		{"goroutine", []*Analyzer{NewGoroutineDiscipline([]string{"testdata/goroutine/approved.go"})}},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.fixture, "/", "_"), func(t *testing.T) {
			checkProgFixture(t, tc.fixture, tc.analyzers)
		})
	}
}

// TestAllowComments checks the suppression convention end to end: an inline
// allow comment, a standalone allow comment, and a marker inside a larger
// comment group each suppress one diagnostic (the group anchors on its own
// last line), while a bare allow (no reason) suppresses nothing and is
// itself reported, and a marker separated from the code by a blank line
// reaches nothing.
func TestAllowComments(t *testing.T) {
	prog, path := progFixture(t, "allow")
	diags := prog.Run([]*Analyzer{NewDeterminism()}, path)
	if len(diags) != 3 {
		t.Fatalf("want exactly 3 diagnostics (bare allow + its unsuppressed time.Now + detached time.Now), got %d:\n%v", len(diags), diags)
	}
	if diags[0].Analyzer != "annotation" || !strings.Contains(diags[0].Message, "needs a reason") {
		t.Errorf("first diagnostic should report the bare allow comment, got %s", diags[0])
	}
	if diags[1].Analyzer != "determinism" || !strings.Contains(diags[1].Message, "time.Now") {
		t.Errorf("second diagnostic should be bare()'s unsuppressed time.Now, got %s", diags[1])
	}
	if diags[2].Analyzer != "determinism" || !strings.Contains(diags[2].Message, "time.Now") {
		t.Errorf("third diagnostic should be detached()'s time.Now past the blank line, got %s", diags[2])
	}
	// groupedMid's call must be suppressed: the marker sits mid-group and
	// anchors on the line after the group's end, not its own next line.
	for _, d := range diags {
		if d.Pos.Line > 20 && d.Pos.Line < 28 {
			t.Errorf("groupedMid's suppressed call leaked a diagnostic: %s", d)
		}
	}
}

// TestDeterminismScopedToInternal checks that the determinism analyzer
// ignores packages outside internal/: cmd and example binaries are
// configuration roots where reading flags or clocks is an explicit choice.
func TestDeterminismScopedToInternal(t *testing.T) {
	pass := &Pass{Path: "oltpsim/cmd/tpcb"}
	if pass.Internal() {
		t.Fatal("cmd/tpcb must not be in determinism scope")
	}
	pass = &Pass{Path: "oltpsim/internal/sim"}
	if !pass.Internal() {
		t.Fatal("internal/sim must be in determinism scope")
	}
}

// TestExpandSkipsTestdata checks pattern expansion: ./... covers the module
// but never descends into testdata (the fixtures intentionally fail).
func TestExpandSkipsTestdata(t *testing.T) {
	ld := testLoader(t)
	paths, err := ld.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, p := range paths {
		seen[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("Expand descended into %s", p)
		}
	}
	for _, want := range []string{"oltpsim", "oltpsim/internal/sim", "oltpsim/internal/lint", "oltpsim/cmd/oltpvet"} {
		if !seen[want] {
			t.Errorf("Expand missed %s (got %d packages)", want, len(paths))
		}
	}
}

// TestRepoIsClean is the acceptance criterion as a regression test: the
// full analyzer suite over every package of the module must report
// nothing. The whole module loads into one Program so the call-graph
// analyzers see the same cross-package flows the oltpvet binary does.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	ld := testLoader(t)
	paths, err := ld.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := NewProgram(ld, paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range prog.Broken {
		t.Fatalf("%s does not type-check: %v", pkg.Path, pkg.TypeErrors)
	}
	for _, d := range prog.Run(All()) {
		t.Errorf("%s", d)
	}
}

// TestNoSuppressionsUnderInternal pins the other acceptance criterion: the
// determinism and invariant contracts hold in internal/ without a single
// escape hatch. Fixture files under testdata are exempt — demonstrating the
// convention is their job.
func TestNoSuppressionsUnderInternal(t *testing.T) {
	ld := testLoader(t)
	root := filepath.Join(ld.ModDir, "internal")
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		// Apply exactly the rule the suppressor applies: a comment token
		// whose text starts with the allow prefix. Mentions inside doc
		// prose or string literals do not suppress and do not count.
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, allowPrefix) {
					t.Errorf("%s has a suppression; internal/ must satisfy the contracts without %s", fset.Position(c.Pos()), allowPrefix)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
