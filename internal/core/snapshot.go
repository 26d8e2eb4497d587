package core

import (
	"fmt"
	"io"

	"oltpsim/internal/cpu"
	"oltpsim/internal/snapshot"
	"oltpsim/internal/stats"
)

// SnapshotState is implemented by workloads whose complete execution state
// can be saved and restored. The OLTP harness implements it; a workload that
// does not cannot be checkpointed.
type SnapshotState interface {
	SaveState(*snapshot.Encoder)
	LoadState(*snapshot.Decoder) error
	// Unread gives back the last n references of the run Next last
	// returned for cpu, which the core has not timed, so that SaveState
	// saves them as still to run and the next Next hands them out again.
	Unread(cpu, n int)
}

// Fingerprint canonicalizes the configuration minus its display name: two
// configs with equal fingerprints build machines of identical shape, which is
// the precondition for restoring a snapshot. The latency override is
// dereferenced so the fingerprint depends on values, never addresses.
func (c Config) Fingerprint() string {
	flat := c
	flat.Name = ""
	flat.LatencyOverride = nil
	lat := "nil"
	if c.LatencyOverride != nil {
		lat = fmt.Sprintf("%+v", *c.LatencyOverride)
	}
	return fmt.Sprintf("%+v lat=%s", flat, lat)
}

// Save writes the complete machine state — caches, directory, CPU models,
// counters, and the workload — as one versioned snapshot.
// A system with a miss classifier cannot be saved (the classifier's
// unbounded line-history table is diagnostic, not architectural).
func (s *System) Save(out io.Writer) error {
	w, err := s.Snapshot()
	if err != nil {
		return err
	}
	_, err = w.WriteTo(out)
	return err
}

// Snapshot returns the machine state as the unwritten writer Save writes,
// for a caller that embeds it in a larger stream.
func (s *System) Snapshot() (*snapshot.Writer, error) {
	if s.classifier != nil {
		return nil, fmt.Errorf("core: a system with Classify enabled cannot be snapshotted")
	}
	ws, ok := s.w.(SnapshotState)
	if !ok {
		return nil, fmt.Errorf("core: workload %T does not support snapshots", s.w)
	}
	// A core's unconsumed run goes back to the workload, so the snapshot
	// holds what handing the references out one at a time would have left
	// unread; the core asks for it again on its next step.
	for _, co := range s.allCores {
		ws.Unread(co.cpuID, len(co.run))
		co.run = nil
	}
	w := snapshot.NewWriter()
	w.Section("config").String(s.fingerprint)

	e := w.Section("machine")
	e.U64s(s.clocks)
	e.U64(s.writeInvalOps)
	e.U64(s.steps)
	for _, n := range s.nodes {
		for _, co := range n.cores {
			co.l1i.SaveState(e)
			co.l1d.SaveState(e)
			if co.inorder != nil {
				co.inorder.SaveState(e)
			} else {
				co.model.(*cpu.OOO).SaveState(e)
			}
		}
		n.l2.SaveState(e)
		n.vb.SaveState(e)
		if n.rc != nil {
			n.rc.SaveState(e)
		}
		n.miss.SaveState(e)
		e.U64(n.stores)
	}

	s.dir.SaveState(w.Section("directory"))

	ws.SaveState(w.Section("workload"))
	return w, nil
}

// Load restores a snapshot read from in into a system built from the
// identical configuration and workload parameters. On error the system is
// left in an unspecified partially-restored state and must be discarded.
func (s *System) Load(in io.Reader) error {
	r, err := snapshot.NewReader(in)
	if err != nil {
		return err
	}
	return s.restore(r)
}

// LoadBytes is Load from a stream already in memory, parsed in place
// rather than copied: data must not change during the call.
func (s *System) LoadBytes(data []byte) error {
	r, err := snapshot.Parse(data)
	if err != nil {
		return err
	}
	return s.restore(r)
}

// restore loads the sections of a parsed snapshot.
func (s *System) restore(r *snapshot.Reader) error {
	if s.classifier != nil {
		return fmt.Errorf("core: a system with Classify enabled cannot restore a snapshot")
	}
	ws, ok := s.w.(SnapshotState)
	if !ok {
		return fmt.Errorf("core: workload %T does not support snapshots", s.w)
	}

	d, err := r.Section("config")
	if err != nil {
		return err
	}
	if fp := d.String(); d.Err() == nil && fp != s.fingerprint {
		return fmt.Errorf("core: snapshot was taken on a different machine configuration")
	}
	if err := d.Finish(); err != nil {
		return err
	}

	d, err = r.Section("machine")
	if err != nil {
		return err
	}
	clocks := d.U64s()
	writeInvalOps := d.U64()
	steps := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if len(clocks) != len(s.clocks) {
		return fmt.Errorf("core: snapshot has %d CPU clocks, want %d", len(clocks), len(s.clocks))
	}
	for i, c := range clocks {
		if c != doneKey && c > maxClock {
			return fmt.Errorf("core: snapshot clock %d of CPU %d exceeds %d", c, i, uint64(maxClock))
		}
	}
	for _, n := range s.nodes {
		for _, co := range n.cores {
			if err := co.l1i.LoadState(d); err != nil {
				return err
			}
			if err := co.l1d.LoadState(d); err != nil {
				return err
			}
			if co.inorder != nil {
				if err := co.inorder.LoadState(d); err != nil {
					return err
				}
			} else if err := co.model.(*cpu.OOO).LoadState(d); err != nil {
				return err
			}
		}
		if err := n.l2.LoadState(d); err != nil {
			return err
		}
		if err := n.vb.LoadState(d); err != nil {
			return err
		}
		if n.rc != nil {
			if err := n.rc.LoadState(d); err != nil {
				return err
			}
		}
		if err := n.miss.LoadState(d); err != nil {
			return err
		}
		n.stores = d.U64()
	}
	if err := d.Finish(); err != nil {
		return err
	}
	copy(s.clocks, clocks)
	// The restored clocks invalidate the event queue wholesale (including
	// which cores are done), so rebuild it rather than patching.
	s.rebuildTree()
	s.writeInvalOps = writeInvalOps
	s.steps = steps

	d, err = r.Section("directory")
	if err != nil {
		return err
	}
	if err := s.dir.LoadState(d); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}

	d, err = r.Section("workload")
	if err != nil {
		return err
	}
	// The runs the cores held are views of the workload state being
	// replaced.
	for _, co := range s.allCores {
		co.run = nil
	}
	if err := ws.LoadState(d); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}
	return r.Finish()
}

// RunMeasured executes the measurement phase against the current —
// presumably warmed — machine state: reset statistics, run measureTxns more
// committed transactions, and collect. Run is warmup followed by
// RunMeasured; after Load of a machine saved at the end of its warmup,
// RunMeasured alone continues it.
func (s *System) RunMeasured(measureTxns uint64) stats.RunResult {
	base := s.Committed()
	s.ResetStats()
	s.RunUntil(base + measureTxns)
	return s.Collect(s.cfg.Name, s.Committed()-base)
}
