package oltp

import (
	"fmt"

	"oltpsim/internal/snapshot"
)

// SaveState writes the complete workload state: the commit count, every
// server's RNG and transaction position, the daemon state machines, the
// kernel code-walk cursors, the database engine, and the process scheduler.
// Address-space layout, emitter configuration, and semaphore addresses are
// construction-derived and not state.
func (h *Harness) SaveState(e *snapshot.Encoder) {
	e.U64(h.committed)
	e.Int(len(h.servers))
	for _, g := range h.servers {
		e.U64(g.waitLSN)
		e.Int(g.phase)
		g.rng.SaveState(e)
		g.sess.SaveState(e)
	}
	e.Int(len(h.lgwr.waiters))
	for _, w := range h.lgwr.waiters {
		e.Int(w.g.id)
		e.U64(w.lsn)
	}
	e.U64(h.lgwr.ioTarget)
	e.Int(h.lgwr.phase)
	e.Int(h.dbwr.phase)
	for _, f := range h.kc.all {
		f.SaveState(e)
	}
	h.eng.SaveState(e)
	h.sched.SaveState(e)
}

// LoadState restores a harness built from the identical parameters.
func (h *Harness) LoadState(d *snapshot.Decoder) error {
	committed := d.U64()
	if n := d.Int(); d.Err() == nil && n != len(h.servers) {
		return fmt.Errorf("oltp: snapshot has %d servers, want %d", n, len(h.servers))
	}
	if d.Err() != nil {
		return d.Err()
	}
	for _, g := range h.servers {
		waitLSN := d.U64()
		phase := d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		if phase != serverPhaseTxn && phase != serverPhaseCommitted {
			return fmt.Errorf("oltp: server %d has invalid phase %d", g.id, phase)
		}
		g.waitLSN = waitLSN
		g.phase = phase
		g.rng.LoadState(d)
		if err := g.sess.LoadState(d); err != nil {
			return err
		}
	}
	nWaiters := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if nWaiters < 0 || nWaiters > len(h.servers) {
		return fmt.Errorf("oltp: %d commit waiters for %d servers", nWaiters, len(h.servers))
	}
	waiters := make([]commitWaiter, nWaiters)
	for i := range waiters {
		id := d.Int()
		lsn := d.U64()
		if d.Err() != nil {
			return d.Err()
		}
		if id < 0 || id >= len(h.servers) {
			return fmt.Errorf("oltp: commit waiter references server %d of %d", id, len(h.servers))
		}
		waiters[i] = commitWaiter{g: h.servers[id], lsn: lsn}
	}
	lgwrIOTarget := d.U64()
	lgwrPhase := d.Int()
	dbwrPhase := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if lgwrPhase != lgwrPhaseIdle && lgwrPhase != lgwrPhaseIO {
		return fmt.Errorf("oltp: log writer has invalid phase %d", lgwrPhase)
	}
	if dbwrPhase != dbwrPhaseScan && dbwrPhase != dbwrPhaseIO {
		return fmt.Errorf("oltp: database writer has invalid phase %d", dbwrPhase)
	}
	for _, f := range h.kc.all {
		if err := f.LoadState(d); err != nil {
			return err
		}
	}
	if err := h.eng.LoadState(d); err != nil {
		return err
	}
	h.committed = committed
	h.lgwr.waiters = append(h.lgwr.waiters[:0], waiters...)
	h.lgwr.ioTarget = lgwrIOTarget
	h.lgwr.phase = lgwrPhase
	h.dbwr.phase = dbwrPhase
	return h.sched.LoadState(d)
}
