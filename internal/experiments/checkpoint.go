package experiments

import (
	"errors"
	"fmt"
	"io"

	"oltpsim/internal/core"
	"oltpsim/internal/scenario"
	"oltpsim/internal/snapshot"
	"oltpsim/internal/stats"
)

// ErrCanceled is returned by Execute when CheckpointRun.Canceled reported
// cancellation at a chunk boundary. The machine state behind the most
// recent checkpoint write is intact, so a canceled run is resumable.
var ErrCanceled = errors.New("experiments: run canceled")

// CheckpointRun configures one execution of the warmup/measure protocol:
// how often to persist the machine state, where the bytes go, what to
// resume from, and the cooperative hooks the job server drives its progress
// stream and cancellation from. The zero value runs the protocol plainly.
type CheckpointRun struct {
	// Every is the checkpoint quantum in committed transactions. When > 0
	// (and Write is set), the run persists a checkpoint after every Every
	// commits of warmup, counted from the start, and of measurement,
	// counted from the statistics reset, that end before the measurement
	// does; 0 writes only the single end-of-warmup checkpoint. The quantum
	// never changes results: chunked RunUntil lands on the same commit
	// boundaries as an uninterrupted run.
	Every uint64
	// Write persists one checkpoint container, the machine state at the
	// moment of the call; ck.WriteTo streams the container's parts to any
	// io.Writer without joining them first. Nil disables all checkpoint
	// writes.
	Write func(ck io.WriterTo) error
	// Resume, when non-nil, is a checkpoint container previously produced
	// against the identical configuration and protocol; the run continues
	// from it instead of starting cold. It is parsed in place and must not
	// change during Execute.
	Resume []byte
	// Canceled, when non-nil, is polled before every chunk of simulation
	// (a quantum, or the stretch up to a phase boundary); once it returns
	// true the run stops and Execute returns ErrCanceled. Every bounds the
	// cancellation latency in committed transactions.
	Canceled func() bool
	// OnProgress, when non-nil, observes measurement progress: it is called
	// with (0, target) at the statistics reset and (measured, target) at
	// every measurement quantum and at the end. Calls are synchronous with
	// the run.
	OnProgress func(measured, target uint64)
}

// Protocol positions a checkpoint records: where in warmup → statistics
// reset → measurement the machine state was captured.
const (
	// posWarming: mid-warmup; a resume finishes the warmup first.
	posWarming uint8 = 1
	// posWarmed: end of warmup, before the statistics reset; a resume
	// starts the measurement afresh.
	posWarmed uint8 = 2
	// posMeasuring: statistics are accumulating; a resume continues
	// without a reset.
	posMeasuring uint8 = 3
)

// protocol is everything a checkpoint must agree on with the run resuming
// it, beyond the machine configuration that System.Load verifies itself.
type protocol struct {
	warmup  uint64
	measure uint64 // measured transactions: MeasuredTxns
	seed    uint64
	quick   bool
	profile string // scenario fingerprint; "" for a steady run
}

// protocol records the options' run protocol.
func (o Options) protocol() protocol {
	p := protocol{warmup: o.WarmupTxns, measure: o.MeasuredTxns(), seed: o.Seed, quick: o.Quick}
	if o.Scenario != nil {
		p.profile = o.Scenario.Fingerprint()
	}
	return p
}

// admits reports why a run under o may not resume ck, naming the first
// differing protocol field. The measured length matters only once
// measurement has begun, so a warmed checkpoint serves any measured length.
func (o Options) admits(ck *checkpoint) error {
	p := o.protocol()
	differs := func(field string, ckv, runv any) error {
		return fmt.Errorf("experiments: checkpoint protocol mismatch: %s is %v in the checkpoint, %v in this run", field, ckv, runv)
	}
	switch {
	case ck.proto.warmup != p.warmup:
		return differs("warmup transactions", ck.proto.warmup, p.warmup)
	case ck.proto.seed != p.seed:
		return differs("seed", ck.proto.seed, p.seed)
	case ck.proto.quick != p.quick:
		return differs("quick database scale", ck.proto.quick, p.quick)
	case ck.proto.profile != p.profile:
		return errors.New("experiments: checkpoint protocol mismatch: the scenario profile differs")
	case ck.pos == posMeasuring && ck.proto.measure != p.measure:
		return differs("measured transactions", ck.proto.measure, p.measure)
	case len(ck.cums) > o.segments():
		return fmt.Errorf("experiments: checkpoint carries %d completed segments, the run has %d", len(ck.cums), o.segments())
	}
	return nil
}

// checkpoint is the one checkpoint container: the protocol position and
// measure base, the protocol it was written under, the cumulative
// collection at every completed segment end, and the machine. Completed
// segments ride in the container because the machine's counters are
// cumulative — a resume could not re-derive earlier segment differences
// from machine state alone.
type checkpoint struct {
	pos         uint8
	measureBase uint64
	proto       protocol
	cums        []stats.RunResult
	system      []byte // the saved machine, a view of the decoded container
}

// save returns the container holding c and sys's current machine state,
// unwritten; it embeds the parts of the machine's sections rather than a
// copy of them.
func (c *checkpoint) save(sys *core.System) (*snapshot.Writer, error) {
	machine, err := sys.Snapshot()
	if err != nil {
		return nil, err
	}
	return c.encode(func(e *snapshot.Encoder) { e.Embed(machine) }), nil
}

// WarmedCheckpoint returns the container Execute hands CheckpointRun.Write
// at the end of warmup, for sys, a machine built under o and warmed through
// o.WarmupTxns. It lets a benchmark time the checkpoint write apart from
// the simulation before it.
func (o Options) WarmedCheckpoint(sys *core.System) (io.WriterTo, error) {
	c := checkpoint{pos: posWarmed, proto: o.protocol()}
	return c.save(sys)
}

// encode builds the container: one "checkpoint" section holding the
// position, protocol, completed segments and the saved machine, which
// system appends as a length-prefixed byte string.
func (c *checkpoint) encode(system func(*snapshot.Encoder)) *snapshot.Writer {
	w := snapshot.NewWriter()
	e := w.Section("checkpoint")
	e.U8(c.pos)
	e.U64(c.measureBase)
	e.U64(c.proto.warmup)
	e.U64(c.proto.measure)
	e.U64(c.proto.seed)
	e.Bool(c.proto.quick)
	e.String(c.proto.profile)
	e.Int(len(c.cums))
	for i := range c.cums {
		c.cums[i].SaveState(e)
	}
	system(e)
	return w
}

// decodeCheckpoint parses a container in place up to, but not including,
// the machine restore: the machine it returns is a view of data. Every
// accepted container re-encodes to the same bytes.
func decodeCheckpoint(data []byte) (checkpoint, error) {
	var c checkpoint
	r, err := snapshot.Parse(data)
	var old *snapshot.VersionError
	if errors.As(err, &old) && old.Got < snapshot.Version {
		return c, fmt.Errorf("experiments: outdated checkpoint (snapshot version %d, this build reads version %d); it cannot be resumed, run again from the start", old.Got, snapshot.Version)
	}
	if err != nil {
		return c, err
	}
	d, err := r.Section("checkpoint")
	if err != nil {
		return c, err
	}
	c.pos = d.U8()
	c.measureBase = d.U64()
	c.proto.warmup = d.U64()
	c.proto.measure = d.U64()
	c.proto.seed = d.U64()
	c.proto.quick = d.Bool()
	c.proto.profile = d.String()
	n := d.Int()
	if err := d.Err(); err != nil {
		return c, err
	}
	switch {
	case c.pos != posWarming && c.pos != posWarmed && c.pos != posMeasuring:
		return c, fmt.Errorf("experiments: checkpoint has invalid position %d", c.pos)
	case n < 0 || n > scenario.MaxPhases:
		return c, fmt.Errorf("experiments: checkpoint carries %d completed segments", n)
	case c.pos != posMeasuring && (n != 0 || c.measureBase != 0):
		return c, errors.New("experiments: checkpoint taken before measurement carries measurement state")
	}
	c.cums = make([]stats.RunResult, n)
	for i := range c.cums {
		if err := c.cums[i].LoadState(d); err != nil {
			return c, err
		}
	}
	c.system = d.U8s()
	if err := d.Finish(); err != nil {
		return c, err
	}
	return c, r.Finish()
}
