package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func decode(t *testing.T, text string) Profile {
	t.Helper()
	p, err := DecodeProfile(strings.NewReader(text))
	if err != nil {
		t.Fatalf("DecodeProfile(%q): %v", text, err)
	}
	return p
}

func TestDecodeMinimal(t *testing.T) {
	p := decode(t, `{"phases":[{"txns":100}]}`)
	if len(p.Phases) != 1 || p.Phases[0].Txns != 100 {
		t.Fatalf("unexpected profile: %+v", p)
	}
	s := p.MustCompile()
	if s.NumPhases() != 1 || s.TotalTxns() != 100 {
		t.Fatalf("unexpected schedule: phases=%d total=%d", s.NumPhases(), s.TotalTxns())
	}
	sh := s.Shape(0)
	want := Shape{Mix: Mix{Update: 1}, WorkingSet: 1, ScanBlocks: DefaultScanBlocks}
	if *sh != want {
		t.Fatalf("default shape = %+v, want %+v", *sh, want)
	}
	if s.PhaseName(0) != "phase0" {
		t.Fatalf("default phase name = %q", s.PhaseName(0))
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct{ name, text string }{
		{"empty", `{}`},
		{"no phases", `{"phases":[]}`},
		{"zero txns", `{"phases":[{"txns":0}]}`},
		{"txns over cap", `{"phases":[{"txns":10000001}]}`},
		{"unknown field", `{"phases":[{"txns":1,"bogus":2}]}`},
		{"trailing data", `{"phases":[{"txns":1}]}{"phases":[{"txns":1}]}`},
		{"ramp on first phase", `{"phases":[{"txns":10,"ramp_txns":5}]}`},
		{"ramp exceeds txns", `{"phases":[{"txns":10},{"txns":10,"ramp_txns":11}]}`},
		{"negative skew", `{"phases":[{"txns":1,"skew":-0.5}]}`},
		{"skew at one", `{"phases":[{"txns":1,"skew":1}]}`},
		{"working set over one", `{"phases":[{"txns":1,"working_set":1.5}]}`},
		{"negative working set", `{"phases":[{"txns":1,"working_set":-0.25}]}`},
		{"zero mix", `{"phases":[{"txns":1,"mix":{"update":0}}]}`},
		{"negative mix weight", `{"phases":[{"txns":1,"mix":{"update":1,"read":-1}}]}`},
		{"scan blocks over cap", `{"phases":[{"txns":1,"scan_blocks":257}]}`},
		{"negative scan blocks", `{"phases":[{"txns":1,"scan_blocks":-1}]}`},
		{"bad time compression", `{"time_compression":-2,"phases":[{"txns":1}]}`},
		{"comma in name", `{"name":"a,b","phases":[{"txns":1}]}`},
		{"not an object", `[1,2,3]`},
	}
	for _, c := range cases {
		if _, err := DecodeProfile(strings.NewReader(c.text)); err == nil {
			t.Errorf("%s: DecodeProfile(%q) accepted", c.name, c.text)
		}
	}
}

func TestDecodeSizeLimit(t *testing.T) {
	huge := `{"name":"` + strings.Repeat("x", MaxProfileBytes) + `","phases":[{"txns":1}]}`
	if _, err := DecodeProfile(strings.NewReader(huge)); err == nil {
		t.Fatal("oversized profile accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	text := `{"name":"diurnal","time_compression":2,"phases":[
		{"name":"day","txns":100,"mix":{"update":3,"read":1},"skew":0.6,"working_set":0.5},
		{"name":"night","txns":60,"ramp_txns":20,"mix":{"update":1,"read":2,"scan":1},"scan_blocks":4}]}`
	p := decode(t, text)
	enc, err := json.Marshal(&p)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	p2, err := DecodeProfile(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("round trip changed the profile:\n%+v\n%+v", p, p2)
	}
	if p.MustCompile().Fingerprint() != p2.MustCompile().Fingerprint() {
		t.Fatal("round trip changed the fingerprint")
	}
}

func TestCompileNormalizesMix(t *testing.T) {
	p := decode(t, `{"phases":[{"txns":10,"mix":{"update":3,"read":1}}]}`)
	sh := p.MustCompile().Shape(0)
	if math.Abs(sh.Mix.Update-0.75) > 1e-12 || math.Abs(sh.Mix.Read-0.25) > 1e-12 || sh.Mix.Scan != 0 {
		t.Fatalf("normalized mix = %+v", sh.Mix)
	}
}

func TestTimeCompression(t *testing.T) {
	p := decode(t, `{"time_compression":10,"phases":[{"txns":100},{"txns":95,"ramp_txns":40},{"txns":3}]}`)
	s := p.MustCompile()
	if got := s.PhaseTxns(0); got != 10 {
		t.Fatalf("phase 0 compressed to %d, want 10", got)
	}
	// 95/10 rounds to nearest (10), 40/10 compresses the ramp to 4.
	if got := s.PhaseTxns(1); got != 10 {
		t.Fatalf("phase 1 compressed to %d, want 10", got)
	}
	if got := s.RampTxns(1); got != 4 {
		t.Fatalf("phase 1 ramp compressed to %d, want 4", got)
	}
	// 3/10 rounds to 0 but phases always retire at least one transaction.
	if got := s.PhaseTxns(2); got != 1 {
		t.Fatalf("phase 2 compressed to %d, want 1", got)
	}
	if s.TotalTxns() != 21 {
		t.Fatalf("total = %d, want 21", s.TotalTxns())
	}
}

func TestAt(t *testing.T) {
	p := decode(t, `{"phases":[{"txns":10},{"txns":10,"ramp_txns":4},{"txns":5}]}`)
	s := p.MustCompile()
	cases := []struct {
		pos  uint64
		want Point
	}{
		{0, Point{Phase: 0}},
		{9, Point{Phase: 0}},
		{10, Point{Phase: 1, InRamp: true, RampFrac: 0}},
		{12, Point{Phase: 1, InRamp: true, RampFrac: 0.5}},
		{13, Point{Phase: 1, InRamp: true, RampFrac: 0.75}},
		{14, Point{Phase: 1}},
		{19, Point{Phase: 1}},
		{20, Point{Phase: 2}},
		{24, Point{Phase: 2}},
		// Positions past the end clamp to the last phase.
		{25, Point{Phase: 2}},
		{1 << 40, Point{Phase: 2}},
	}
	for _, c := range cases {
		if got := s.At(c.pos); got != c.want {
			t.Errorf("At(%d) = %+v, want %+v", c.pos, got, c.want)
		}
	}
}

func TestBoundaries(t *testing.T) {
	p := decode(t, `{"phases":[{"txns":7},{"txns":11},{"txns":13}]}`)
	s := p.MustCompile()
	want := []uint64{7, 18, 31}
	for i, w := range want {
		if got := s.Boundary(i); got != w {
			t.Errorf("Boundary(%d) = %d, want %d", i, got, w)
		}
	}
	if s.TotalTxns() != 31 {
		t.Fatalf("TotalTxns = %d, want 31", s.TotalTxns())
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := decode(t, `{"phases":[{"txns":10},{"txns":10}]}`)
	variants := []string{
		`{"phases":[{"txns":10},{"txns":11}]}`,
		`{"phases":[{"txns":10},{"txns":10,"ramp_txns":3}]}`,
		`{"phases":[{"txns":10},{"txns":10,"skew":0.5}]}`,
		`{"phases":[{"txns":10},{"txns":10,"working_set":0.5}]}`,
		`{"phases":[{"txns":10},{"txns":10,"mix":{"update":1,"read":1}}]}`,
	}
	fp := base.MustCompile().Fingerprint()
	for _, text := range variants {
		v := decode(t, text)
		if v.MustCompile().Fingerprint() == fp {
			t.Errorf("variant %q shares the base fingerprint", text)
		}
	}
	// Equivalent mixes compile to the same schedule and fingerprint.
	a := decode(t, `{"phases":[{"txns":10,"mix":{"update":3,"read":1}}]}`)
	b := decode(t, `{"phases":[{"txns":10,"mix":{"update":0.75,"read":0.25}}]}`)
	if a.MustCompile().Fingerprint() != b.MustCompile().Fingerprint() {
		t.Fatal("equivalent mixes fingerprint differently")
	}
}

// TestCommittedProfiles: every profile committed under examples/scenarios
// decodes and compiles, so the files the README and the examples point at
// stay runnable.
func TestCommittedProfiles(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, path := range paths {
		found[filepath.Base(path)] = true
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := DecodeProfile(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if _, err := p.Compile(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
	for _, name := range []string{"burst.json", "diurnal.json", "dss.json"} {
		if !found[name] {
			t.Errorf("examples/scenarios/%s is missing", name)
		}
	}
}
