package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"oltpsim/internal/core"
	"oltpsim/internal/scenario"
	"oltpsim/internal/snapshot"
	"oltpsim/internal/stats"
)

// PhaseResult is one phase's segment of a scenario run.
type PhaseResult struct {
	// Index is the phase's position in the schedule.
	Index int
	// StartTxn is the committed-transaction offset (into the measurement)
	// at which the phase began.
	StartTxn uint64
	// Result is the segment between the phase's boundaries: Result.Name is
	// the phase name, Result.Txns the phase length, counters the
	// differences of cumulative collections at the two boundaries.
	Result stats.RunResult
}

// ScenarioResult is a scenario run segmented per phase. Phase segments sum
// to Total by construction (they are consecutive differences of one
// monotone counter stream), and the per-phase invariant suite re-checks the
// conservation laws inside every segment.
type ScenarioResult struct {
	// Profile is the schedule's display name.
	Profile string
	// Config is the machine configuration's name.
	Config string
	// Phases are the per-phase segments in schedule order.
	Phases []PhaseResult
	// Total is the whole measured run (the cumulative collection at the
	// last boundary), exactly what Options.Run would return.
	Total stats.RunResult
}

// phaseSegment cuts phase i's segment out of consecutive cumulative
// collections.
func phaseSegment(sched *scenario.Schedule, i int, cum, prev *stats.RunResult) PhaseResult {
	seg := stats.Sub(cum, prev)
	seg.Name = sched.PhaseName(i)
	var start uint64
	if i > 0 {
		start = sched.Boundary(i - 1)
	}
	return PhaseResult{Index: i, StartTxn: start, Result: seg}
}

// RunScenario executes one configuration under Options.Scenario and
// segments the measurement per phase: warm up (phase 0 governs warmup),
// reset, then stop at every phase boundary for a read-only cumulative
// collection. Stopping points are exact commit boundaries — RunUntil
// retires at most one commit per step — so a checkpointed or resumed run
// lands on the same segments, and the whole-run Total is byte-identical to
// Options.Run of the same schedule.
func (o Options) RunScenario(cfg core.Config) ScenarioResult {
	sched := o.Scenario
	if sched == nil {
		panic("experiments: RunScenario requires Options.Scenario")
	}
	sys := o.build(cfg)
	sys.RunUntil(o.WarmupTxns)
	sys.ResetStats()
	base := sys.Committed()
	sr := ScenarioResult{Profile: sched.Name(), Config: cfg.Name}
	var prev stats.RunResult
	for i := 0; i < sched.NumPhases(); i++ {
		sys.RunUntil(base + sched.Boundary(i))
		cum := sys.Collect(cfg.Name, sys.Committed()-base)
		sr.Phases = append(sr.Phases, phaseSegment(sched, i, &cum, &prev))
		prev = cum
	}
	sr.Total = prev
	return sr
}

// scenarioCkptState is what a scenario checkpoint carries beyond the
// machine: protocol position plus the completed phase segments and the
// cumulative collection they were cut against.
type scenarioCkptState struct {
	phase       uint8
	measureBase uint64
	done        []PhaseResult
	prev        stats.RunResult
}

// saveScenarioCheckpoint writes the scenario checkpoint container: the
// generic protocol section, a scenario section (schedule fingerprint,
// completed phase segments, previous cumulative collection), and the
// machine state. Completed segments ride in the container because the
// machine's counters are cumulative — a resume could not re-derive earlier
// phase differences from state alone.
func saveScenarioCheckpoint(out io.Writer, sys *core.System, st *scenarioCkptState, fingerprint string) error {
	if !validPhase(st.phase) {
		return fmt.Errorf("experiments: invalid checkpoint phase %d", st.phase)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		return err
	}
	w := snapshot.NewWriter()
	e := w.Section("protocol")
	e.U8(st.phase)
	e.U64(st.measureBase)
	e = w.Section("scenario")
	e.String(fingerprint)
	e.Int(len(st.done))
	for i := range st.done {
		e.U64(st.done[i].StartTxn)
		st.done[i].Result.SaveState(e)
	}
	st.prev.SaveState(e)
	w.Section("system").U8s(buf.Bytes())
	return w.Emit(out)
}

// loadScenarioCheckpoint restores a scenario checkpoint into sys. The
// stored schedule fingerprint must match the resuming options' schedule:
// resuming one scenario under another would silently splice two different
// parameter streams.
func loadScenarioCheckpoint(in io.Reader, sys *core.System, wantFingerprint string) (scenarioCkptState, error) {
	var st scenarioCkptState
	r, err := snapshot.NewReader(in)
	if err != nil {
		return st, err
	}
	d, err := r.Section("protocol")
	if err != nil {
		return st, err
	}
	st.phase = d.U8()
	st.measureBase = d.U64()
	if err := d.Finish(); err != nil {
		return st, err
	}
	if !validPhase(st.phase) {
		return st, fmt.Errorf("experiments: checkpoint has invalid phase %d", st.phase)
	}
	d, err = r.Section("scenario")
	if err != nil {
		return st, err
	}
	fp := d.String()
	n := d.Int()
	if err := d.Err(); err != nil {
		return st, err
	}
	if fp != wantFingerprint {
		return st, errors.New("experiments: checkpoint was written under a different scenario")
	}
	if n < 0 || n > scenario.MaxPhases {
		return st, fmt.Errorf("experiments: checkpoint carries %d completed phases", n)
	}
	for i := 0; i < n; i++ {
		pr := PhaseResult{Index: i, StartTxn: d.U64()}
		if err := pr.Result.LoadState(d); err != nil {
			return st, err
		}
		st.done = append(st.done, pr)
	}
	if err := st.prev.LoadState(d); err != nil {
		return st, err
	}
	if err := d.Finish(); err != nil {
		return st, err
	}
	d, err = r.Section("system")
	if err != nil {
		return st, err
	}
	payload := d.U8s()
	if err := d.Finish(); err != nil {
		return st, err
	}
	if err := r.Finish(); err != nil {
		return st, err
	}
	if err := sys.Load(bytes.NewReader(payload)); err != nil {
		return st, err
	}
	return st, nil
}

// RunScenarioCheckpointed is RunScenario with the checkpoint/resume/cancel
// protocol of RunCheckpointed. The chunked RunUntil loop additionally stops
// at phase boundaries (which never changes results: chunked stepping lands
// on identical commit boundaries), and checkpoints carry the completed
// segments, so a run interrupted mid-phase and resumed produces a
// ScenarioResult byte-identical to an uninterrupted one.
func (o Options) RunScenarioCheckpointed(cfg core.Config, cr CheckpointRun) (ScenarioResult, uint64, error) {
	sched := o.Scenario
	if sched == nil {
		return ScenarioResult{}, 0, errors.New("experiments: RunScenarioCheckpointed requires Options.Scenario")
	}
	sys := o.build(cfg)
	st := scenarioCkptState{phase: CheckpointWarming}
	var steps0 uint64
	if cr.Resume != nil {
		loaded, err := loadScenarioCheckpoint(bytes.NewReader(cr.Resume), sys, sched.Fingerprint())
		if err != nil {
			return ScenarioResult{}, 0, fmt.Errorf("experiments: resuming scenario checkpoint: %w", err)
		}
		steps0 = sys.Steps()
		st.phase = loaded.phase
		if st.phase == CheckpointMeasuring {
			st.measureBase = loaded.measureBase
			st.done = loaded.done
			st.prev = loaded.prev
		}
	}
	canceled := func() bool { return cr.Canceled != nil && cr.Canceled() }
	executed := func() uint64 { return sys.Steps() - steps0 }
	write := func() error {
		if cr.Write == nil {
			return nil
		}
		var buf bytes.Buffer
		if err := saveScenarioCheckpoint(&buf, sys, &st, sched.Fingerprint()); err != nil {
			return err
		}
		return cr.Write(buf.Bytes())
	}

	if st.phase == CheckpointWarming {
		for sys.Committed() < o.WarmupTxns {
			if canceled() {
				return ScenarioResult{}, executed(), ErrCanceled
			}
			next := o.WarmupTxns
			if cr.Every > 0 && sys.Committed()+cr.Every < next {
				next = sys.Committed() + cr.Every
			}
			sys.RunUntil(next)
			if next < o.WarmupTxns && cr.Every > 0 {
				if err := write(); err != nil {
					return ScenarioResult{}, executed(), fmt.Errorf("experiments: writing checkpoint: %w", err)
				}
			}
		}
		st.phase = CheckpointWarmed
		if err := write(); err != nil {
			return ScenarioResult{}, executed(), fmt.Errorf("experiments: writing checkpoint: %w", err)
		}
	}

	total := sched.TotalTxns()
	if st.phase == CheckpointWarmed {
		st.measureBase = sys.Committed()
		sys.ResetStats()
		st.phase = CheckpointMeasuring
		if cr.OnProgress != nil {
			cr.OnProgress(0, total)
		}
	}

	for i := len(st.done); i < sched.NumPhases(); i++ {
		end := st.measureBase + sched.Boundary(i)
		for sys.Committed() < end {
			if canceled() {
				return ScenarioResult{}, executed(), ErrCanceled
			}
			next := end
			if cr.Every > 0 && sys.Committed()+cr.Every < next {
				next = sys.Committed() + cr.Every
			}
			sys.RunUntil(next)
			if cr.Every > 0 {
				if err := write(); err != nil {
					return ScenarioResult{}, executed(), fmt.Errorf("experiments: writing checkpoint: %w", err)
				}
			}
			if cr.OnProgress != nil {
				cr.OnProgress(sys.Committed()-st.measureBase, total)
			}
		}
		cum := sys.Collect(cfg.Name, sys.Committed()-st.measureBase)
		st.done = append(st.done, phaseSegment(sched, i, &cum, &st.prev))
		st.prev = cum
	}
	res := ScenarioResult{Profile: sched.Name(), Config: cfg.Name, Phases: st.done, Total: st.prev}
	return res, executed(), nil
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
// full the All configuration) under Options.Scenario.
func RunTimelineLadder(o Options, procs int, full bool) TimelineFigure {
	if o.Scenario == nil {
		panic("experiments: RunTimelineLadder requires Options.Scenario")
	}
	f := TimelineFigure{Profile: o.Scenario.Name()}
	for _, cfg := range integrationLadder(procs, full) {
		f.Results = append(f.Results, o.RunScenario(cfg))
	}
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
