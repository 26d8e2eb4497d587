package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oltpsim/internal/core"
)

// updateGolden rewrites the package's golden files instead of comparing:
//
//	go test ./internal/experiments/ -run 'TestTimelineGolden|TestWideMachineGolden' -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden testdata")

// goldenScenarioResult is the reference phased run the golden files pin: the
// burst profile on the fully integrated 8-way machine under the quick-sized
// invariant protocol.
func goldenScenarioResult(t *testing.T) ScenarioResult {
	t.Helper()
	o := invariantOptions()
	o.Scenario = compileProfile(t, burstProfile())
	return o.RunScenario(core.FullConfig(8, 2*core.MB, 8))
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the golden file.\nIf the change is intentional, regenerate with -update-golden.\ngot:\n%s\nwant:\n%s",
			filepath.Base(path), got, want)
	}
}

// TestTimelineGolden pins the timeline writers byte for byte, the same way
// figures_output.txt pins the figure renderers: the reference scenario's
// CSV and JSON timelines are committed as testdata and any drift — in the
// simulation, the segmentation, or the formatting — fails here.
func TestTimelineGolden(t *testing.T) {
	sr := goldenScenarioResult(t)

	var csv bytes.Buffer
	if err := WriteTimelineCSV(&csv, &sr); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "burst_timeline.csv"), csv.Bytes())

	var js bytes.Buffer
	if err := WriteTimelineJSON(&js, &sr); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(js.Bytes()) {
		t.Fatal("timeline JSON is not valid JSON")
	}
	checkGolden(t, filepath.Join("testdata", "burst_timeline.json"), js.Bytes())

	// The writers are pure functions of the result: a second rendering is
	// byte-identical.
	var csv2 bytes.Buffer
	if err := WriteTimelineCSV(&csv2, &sr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv.Bytes(), csv2.Bytes()) {
		t.Error("two CSV renderings of one result differ")
	}
}

// TestTimelineCSVShape pins the structural contract consumers parse by: the
// fixed header, one row per phase plus the trailing total row, and a total
// row that carries the whole-run transaction count.
func TestTimelineCSVShape(t *testing.T) {
	sr := goldenScenarioResult(t)
	var b bytes.Buffer
	if err := WriteTimelineCSV(&b, &sr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 2+len(sr.Phases)+1 {
		t.Fatalf("got %d lines, want comment + header + %d phases + total", len(lines), len(sr.Phases))
	}
	if !strings.HasPrefix(lines[0], "# profile burst, config ") {
		t.Errorf("comment line %q", lines[0])
	}
	if lines[1] != timelineColumns {
		t.Errorf("header %q != %q", lines[1], timelineColumns)
	}
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "-1,total,") {
		t.Errorf("total row %q", last)
	}
	for i, line := range lines[2 : 2+len(sr.Phases)] {
		if fields := strings.Split(line, ","); fields[1] != sr.Phases[i].Result.Name {
			t.Errorf("row %d names phase %q, want %q", i, fields[1], sr.Phases[i].Result.Name)
		}
	}
}

// TestTimelineLadderRender smoke-tests the figure family: every ladder
// configuration appears, every phase appears as a column, Base normalizes
// to 100.0 in each phase, and rendering is deterministic.
func TestTimelineLadderRender(t *testing.T) {
	o := invariantOptions()
	o.Scenario = compileProfile(t, burstProfile())
	f := RunTimelineLadder(o, 8, true)
	if len(f.Results) != 4 {
		t.Fatalf("ladder has %d results, want 4", len(f.Results))
	}
	out := f.Render()
	for _, want := range []string{"Base", "L2+MC", "All", "calm", "spike", "recover", "whole-run"} {
		if !strings.Contains(out, want) {
			t.Errorf("render is missing %q:\n%s", want, out)
		}
	}
	// The Base row normalizes to itself.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Base") {
			if !strings.Contains(line, "100.0") {
				t.Errorf("Base row does not normalize to 100.0: %q", line)
			}
			break
		}
	}
	if out != f.Render() {
		t.Error("two renderings differ")
	}
}
