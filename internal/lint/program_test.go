package lint

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// progFixture loads one fixture package into a whole-program pass, failing
// the test on any type error: a fixture that does not compile proves
// nothing.
func progFixture(t *testing.T, name string) (*Program, string) {
	t.Helper()
	ld := testLoader(t)
	path := fixturePrefix + name
	prog, err := NewProgram(ld, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range prog.Broken {
		t.Fatalf("fixture %s does not type-check: %v", pkg.Path, pkg.TypeErrors)
	}
	if prog.Package(path) == nil {
		t.Fatalf("fixture %s missing from program", path)
	}
	return prog, path
}

// checkProgFixture runs analyzers over a fixture through the Program driver
// and matches diagnostics against the want comments exactly: every
// diagnostic must be wanted, every want must fire. extra lists substrings
// of diagnostics expected on lines a want comment cannot sit on (the
// annotation scanner reports bare markers on their own comment line); each
// must fire exactly once.
func checkProgFixture(t *testing.T, name string, analyzers []*Analyzer, extra ...string) {
	t.Helper()
	prog, path := progFixture(t, name)
	wants := wantsOf(prog.Package(path))
	for _, d := range prog.Run(analyzers, path) {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		rest := wants[key][:0:0]
		for _, w := range wants[key] {
			if !matched && strings.Contains(d.Message, w) {
				matched = true
				continue
			}
			rest = append(rest, w)
		}
		wants[key] = rest
		if !matched {
			for i, e := range extra {
				if e != "" && strings.Contains(d.Message, e) {
					extra[i] = ""
					matched = true
					break
				}
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			t.Errorf("%s: expected diagnostic matching %q did not fire", key, w)
		}
	}
	for _, e := range extra {
		if e != "" {
			t.Errorf("expected diagnostic matching %q did not fire", e)
		}
	}
}

// TestSnapshotCompleteFixture is the table of field rules: omitted fields
// fire (including through an empty composite literal), transitive and
// promoted references cover, derived exempts, a stale derived annotation
// and a lone pair half are themselves diagnostics, and a bare derived
// marker both exempts nothing and is reported.
func TestSnapshotCompleteFixture(t *testing.T) {
	checkProgFixture(t, "snapshotcomplete", []*Analyzer{NewSnapshotComplete()},
		"//oltpvet:derived needs a reason")
}

// TestSnapshotCompleteFacts pins what the fixture run publishes: a pair
// fact for every verified pair (the lone Half and the non-snapshot Emitter
// excluded) and the single derived exemption.
func TestSnapshotCompleteFacts(t *testing.T) {
	prog, path := progFixture(t, "snapshotcomplete")
	prog.Run([]*Analyzer{NewSnapshotComplete()}, path)
	if _, ok := prog.Facts().Lookup(snapshotCompleteName, path, "derived:Machine.memo"); !ok {
		t.Error("derived exemption for Machine.memo was not published as a fact")
	}
	var pairs []string
	for _, f := range prog.Facts().All(snapshotCompleteName) {
		if p, ok := f.Value.(SnapPairFact); ok {
			pairs = append(pairs, p.Type)
		}
	}
	want := []string{"Bare", "Container", "Lit", "Machine", "Wrap", "Zeroed"}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("verified pairs = %v, want %v", pairs, want)
	}
}

// TestMapOrderFixture checks sink-flow scoping and the two laundering
// idioms; snapshotcomplete runs alongside so pair methods register as sinks
// through the fact store.
func TestMapOrderFixture(t *testing.T) {
	checkProgFixture(t, "maporder",
		[]*Analyzer{NewSnapshotComplete(), NewMapOrder(DefaultMapOrderSinks)})
}

// TestHotPathAllocFixture checks every flagged construct class and every
// deliberate exemption, with the fixture's own System.Step as the root.
func TestHotPathAllocFixture(t *testing.T) {
	root := HotRoot{Pkg: fixturePrefix + "hotpathalloc", Type: "System", Method: "Step"}
	checkProgFixture(t, "hotpathalloc", []*Analyzer{NewHotPathAlloc([]HotRoot{root})})
}

// TestHotPathColdpathFact pins the coldpath exemption fact the fixture
// publishes.
func TestHotPathColdpathFact(t *testing.T) {
	prog, path := progFixture(t, "hotpathalloc")
	root := HotRoot{Pkg: path, Type: "System", Method: "Step"}
	prog.Run([]*Analyzer{NewHotPathAlloc([]HotRoot{root})}, path)
	v, ok := prog.Facts().Lookup(hotPathAllocName, path, "coldpath:System.debug")
	if !ok {
		t.Fatal("coldpath exemption for System.debug was not published as a fact")
	}
	if reason, _ := v.(string); !strings.Contains(reason, "excluded") {
		t.Errorf("coldpath fact carries reason %q, want the annotation's reason", v)
	}
}

// TestSnapshotMutation is the detection guarantee behind the clean-repo
// pin: a copy of the real cache.VictimBuffer pair with the replacement
// cursor's serialization deleted must be caught.
func TestSnapshotMutation(t *testing.T) {
	checkProgFixture(t, "mutation", []*Analyzer{NewSnapshotComplete()})
}

// TestGenericsFixture is the loader edge case: generic types and functions
// must type-check and pass the whole suite quietly — the Stack snapshot
// pair is audited on its origin type, and type parameters are exempt from
// boxing judgments.
func TestGenericsFixture(t *testing.T) {
	checkProgFixture(t, "generics", All())
}

// TestCallGraphResolution checks the conservative resolution rules on the
// callgraph fixture: interface calls reach every implementation (value and
// pointer receivers), method values taken as callbacks resolve through the
// dynamic call in apply, function literals connect to their callees, and a
// function that is neither called nor taken stays unreachable.
func TestCallGraphResolution(t *testing.T) {
	prog, path := progFixture(t, "callgraph")
	g := prog.CallGraph()
	entryFn := prog.LookupFunc(path, "", "Entry")
	if entryFn == nil {
		t.Fatal("Entry not found")
	}
	entry := g.NodeOf(entryFn)
	if entry == nil {
		t.Fatal("Entry has no call-graph node")
	}
	reach := g.ReachableFrom([]*Node{entry}, nil)
	check := func(typeName, name string, want bool) {
		t.Helper()
		fn := prog.LookupFunc(path, typeName, name)
		if fn == nil {
			t.Fatalf("%s.%s not found in fixture", typeName, name)
		}
		n := g.NodeOf(fn)
		if got := n != nil && reach[n]; got != want {
			t.Errorf("reachable(Entry -> %s.%s) = %v, want %v", typeName, name, got, want)
		}
	}
	check("Direct", "Run", true)
	check("Indirect", "Run", true)
	check("helper", "bump", true)
	check("", "callback", true)
	check("", "apply", true)
	check("", "leafLit", true)
	check("", "unused", false)
}

// TestContractAnalyzersPinned is the zero-suppression pin for the contract
// analyzers: over the whole module they must be clean with suppression
// comments ignored, and every exemption they publish — derived fields,
// coldpath functions, verified snapshot pairs — is enumerated exactly, so
// adding one is a conscious edit here, not a silent escape.
func TestContractAnalyzersPinned(t *testing.T) {
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
	analyzers := []*Analyzer{
		NewSnapshotComplete(),
		NewMapOrder(DefaultMapOrderSinks),
		NewHotPathAlloc(DefaultHotRoots),
	}
	for _, d := range prog.RunUnsuppressed(analyzers) {
		t.Errorf("contract analyzers must hold without suppression: %s", d)
	}

	var derived, pairs []string
	for _, f := range prog.Facts().All(snapshotCompleteName) {
		switch {
		case strings.HasPrefix(f.Key, "derived:"):
			derived = append(derived, f.Pkg+" "+strings.TrimPrefix(f.Key, "derived:"))
		case strings.HasPrefix(f.Key, "pair:"):
			pairs = append(pairs, f.Pkg+" "+strings.TrimPrefix(f.Key, "pair:"))
		}
	}
	var coldpath []string
	for _, f := range prog.Facts().All(hotPathAllocName) {
		if strings.HasPrefix(f.Key, "coldpath:") {
			coldpath = append(coldpath, f.Pkg+" "+strings.TrimPrefix(f.Key, "coldpath:"))
		}
	}

	wantDerived := []string{
		"oltpsim/internal/core System.tree",
		"oltpsim/internal/tpcb BufferPool.blockToFrame",
	}
	if !reflect.DeepEqual(derived, wantDerived) {
		t.Errorf("derived exemptions = %v, want %v", derived, wantDerived)
	}
	wantColdpath := []string{"oltpsim/internal/cache Classifier.Observe"}
	if !reflect.DeepEqual(coldpath, wantColdpath) {
		t.Errorf("coldpath exemptions = %v, want %v", coldpath, wantColdpath)
	}
	wantPairs := []string{
		"oltpsim/internal/cache Cache",
		"oltpsim/internal/cache VictimBuffer",
		"oltpsim/internal/coherence Directory",
		"oltpsim/internal/core System",
		"oltpsim/internal/cpu Breakdown",
		"oltpsim/internal/cpu InOrder",
		"oltpsim/internal/cpu OOO",
		"oltpsim/internal/kernel Scheduler",
		"oltpsim/internal/oltp Harness",
		"oltpsim/internal/rac RAC",
		"oltpsim/internal/sim RNG",
		"oltpsim/internal/stats MissTable",
		"oltpsim/internal/stats RunResult",
		"oltpsim/internal/tpcb BufferPool",
		"oltpsim/internal/tpcb CodeFn",
		"oltpsim/internal/tpcb Engine",
		"oltpsim/internal/tpcb RedoLog",
		"oltpsim/internal/tpcb Session",
	}
	if !reflect.DeepEqual(pairs, wantPairs) {
		t.Errorf("verified snapshot pairs = %v, want %v", pairs, wantPairs)
	}
}
