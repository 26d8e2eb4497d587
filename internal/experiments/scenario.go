package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"oltpsim/internal/stats"
)

// PhaseResult is one segment of a run: a scenario phase, or the whole
// measurement of a steady run.
type PhaseResult struct {
	// Index is the phase's position in the schedule.
	Index int
	// StartTxn is the committed-transaction offset (into the measurement)
	// at which the phase began.
	StartTxn uint64
	// Result is the segment between the phase's boundaries: Result.Name is
	// the phase name (the configuration's for a steady run), Result.Txns
	// the phase length, counters the differences of cumulative collections
	// at the two boundaries.
	Result stats.RunResult
}

// ScenarioResult is a run segmented per phase; a steady run is one
// segment equal to Total. Phase segments sum
// to Total by construction (they are consecutive differences of one
// monotone counter stream), and the per-phase invariant suite re-checks the
// conservation laws inside every segment.
type ScenarioResult struct {
	// Profile is the schedule's display name ("" for a steady run).
	Profile string
	// Config is the machine configuration's name.
	Config string
	// Phases are the per-phase segments in schedule order.
	Phases []PhaseResult
	// Total is the whole measured run (the cumulative collection at the
	// last boundary), exactly what Options.Run returns.
	Total stats.RunResult
}

// timelineColumns is the CSV header; WriteTimelineJSON mirrors the fields.
const timelineColumns = "phase_index,phase,start_txn,txns,cycles_per_txn,l2_misses_per_txn,miss_local,miss_remote_clean,miss_remote_dirty,l1i_miss_rate,l1d_miss_rate,kernel_fraction,utilization"

func timelineRow(b *bytes.Buffer, idx int, name string, start uint64, r *stats.RunResult) {
	fmt.Fprintf(b, "%d,%s,%d,%d,%.4f,%.4f,%d,%d,%d,%.6f,%.6f,%.6f,%.6f\n",
		idx, name, start, r.Txns,
		r.CyclesPerTxn(), r.MissesPerTxn(),
		r.Miss.Local(), r.Miss.RemoteClean(), r.Miss.RemoteDirty(),
		r.L1IMissRate, r.L1DMissRate, r.KernelFraction, r.Utilization)
}

// WriteTimelineCSV renders one scenario run as a per-phase CSV timeline,
// one row per phase plus a final whole-run row (phase_index -1, "total").
// Output is a pure function of the result — fixed header, fixed float
// precision — so a fixed seed pins it byte-for-byte (the golden timeline
// test and its CI step diff it like figures_output.txt).
func WriteTimelineCSV(w io.Writer, sr *ScenarioResult) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# profile %s, config %s\n", sr.Profile, sr.Config)
	b.WriteString(timelineColumns)
	b.WriteByte('\n')
	for i := range sr.Phases {
		p := &sr.Phases[i]
		timelineRow(&b, p.Index, p.Result.Name, p.StartTxn, &p.Result)
	}
	timelineRow(&b, -1, "total", 0, &sr.Total)
	_, err := w.Write(b.Bytes())
	return err
}

// timelineJSONRow mirrors one CSV row.
type timelineJSONRow struct {
	Phase           string  `json:"phase"`
	StartTxn        uint64  `json:"start_txn"`
	Txns            uint64  `json:"txns"`
	CyclesPerTxn    float64 `json:"cycles_per_txn"`
	L2MissesPerTxn  float64 `json:"l2_misses_per_txn"`
	MissLocal       uint64  `json:"miss_local"`
	MissRemoteClean uint64  `json:"miss_remote_clean"`
	MissRemoteDirty uint64  `json:"miss_remote_dirty"`
	L1IMissRate     float64 `json:"l1i_miss_rate"`
	L1DMissRate     float64 `json:"l1d_miss_rate"`
	KernelFraction  float64 `json:"kernel_fraction"`
	Utilization     float64 `json:"utilization"`
}

func toTimelineJSONRow(name string, start uint64, r *stats.RunResult) timelineJSONRow {
	return timelineJSONRow{
		Phase:           name,
		StartTxn:        start,
		Txns:            r.Txns,
		CyclesPerTxn:    r.CyclesPerTxn(),
		L2MissesPerTxn:  r.MissesPerTxn(),
		MissLocal:       r.Miss.Local(),
		MissRemoteClean: r.Miss.RemoteClean(),
		MissRemoteDirty: r.Miss.RemoteDirty(),
		L1IMissRate:     r.L1IMissRate,
		L1DMissRate:     r.L1DMissRate,
		KernelFraction:  r.KernelFraction,
		Utilization:     r.Utilization,
	}
}

// WriteTimelineJSON renders the same timeline as indented JSON (ordered
// struct fields, so equally deterministic).
func WriteTimelineJSON(w io.Writer, sr *ScenarioResult) error {
	doc := struct {
		Profile string            `json:"profile"`
		Config  string            `json:"config"`
		Phases  []timelineJSONRow `json:"phases"`
		Total   timelineJSONRow   `json:"total"`
	}{Profile: sr.Profile, Config: sr.Config}
	for i := range sr.Phases {
		p := &sr.Phases[i]
		doc.Phases = append(doc.Phases, toTimelineJSONRow(p.Result.Name, p.StartTxn, &p.Result))
	}
	doc.Total = toTimelineJSONRow("total", 0, &sr.Total)
	enc, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// TimelineFigure is the timeline figure family: the Figure 10 integration
// ladder run under one scenario, asking how each integration step's benefit
// moves as the workload breathes phase to phase.
type TimelineFigure struct {
	// Profile is the schedule's display name.
	Profile string
	// Results holds one segmented run per ladder configuration, Base first.
	Results []ScenarioResult
}

// RunTimelineLadder runs the integration ladder (Base, L2, L2+MC, and with
// full the All configuration) under Options.Scenario, on the same worker
// pool as RunMany.
func RunTimelineLadder(o Options, procs int, full bool) TimelineFigure {
	if o.Scenario == nil {
		panic("experiments: RunTimelineLadder requires Options.Scenario")
	}
	cfgs := integrationLadder(procs, full)
	f := TimelineFigure{Profile: o.Scenario.Name(), Results: make([]ScenarioResult, len(cfgs))}
	o.pool(len(cfgs), func(i int) { f.Results[i] = o.RunScenario(cfgs[i]) })
	return f
}

// Render presents the figure as two tables, configurations by phases: the
// paper's execution-time metric normalized to Base within each phase (how
// the ladder's benefit moves across phases), then absolute L2 misses per
// transaction.
func (f *TimelineFigure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Timeline: integration ladder vs. phase (profile %q)\n", f.Profile)
	if len(f.Results) == 0 {
		return b.String()
	}
	phases := f.Results[0].Phases
	writeHeader := func() {
		fmt.Fprintf(&b, "%-8s", "config")
		for i := range phases {
			fmt.Fprintf(&b, " %10s", phases[i].Result.Name)
		}
		fmt.Fprintf(&b, " %10s\n", "whole-run")
	}
	b.WriteString("\nnon-idle cycles/txn, normalized to Base within each phase (x100)\n")
	writeHeader()
	base := &f.Results[0]
	for r := range f.Results {
		res := &f.Results[r]
		fmt.Fprintf(&b, "%-8s", res.Config)
		for i := range res.Phases {
			norm := 0.0
			if bc := base.Phases[i].Result.CyclesPerTxn(); bc > 0 {
				norm = 100 * res.Phases[i].Result.CyclesPerTxn() / bc
			}
			fmt.Fprintf(&b, " %10.1f", norm)
		}
		norm := 0.0
		if bc := base.Total.CyclesPerTxn(); bc > 0 {
			norm = 100 * res.Total.CyclesPerTxn() / bc
		}
		fmt.Fprintf(&b, " %10.1f\n", norm)
	}
	b.WriteString("\nL2 misses per transaction\n")
	writeHeader()
	for r := range f.Results {
		res := &f.Results[r]
		fmt.Fprintf(&b, "%-8s", res.Config)
		for i := range res.Phases {
			fmt.Fprintf(&b, " %10.1f", res.Phases[i].Result.MissesPerTxn())
		}
		fmt.Fprintf(&b, " %10.1f\n", res.Total.MissesPerTxn())
	}
	return b.String()
}
