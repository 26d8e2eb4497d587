package oltp

import (
	"oltpsim/internal/kernel"
	"oltpsim/internal/sim"
	"oltpsim/internal/tpcb"
)

// serverGen is one dedicated server process: it loops TPC-B transactions,
// blocking at commit until the log writer has made the redo durable (group
// commit), exactly the paper's dedicated-mode Oracle arrangement.
type serverGen struct {
	h    *Harness
	id   int
	rng  *sim.RNG
	sess *tpcb.Session
	proc *kernel.Proc
	pipe uint64 // private pipe buffer
	sem  uint64 // shared semaphore line

	waitLSN uint64
	phase   int
}

const (
	serverPhaseTxn = iota
	serverPhaseCommitted
)

// NextSegment implements kernel.Generator.
func (g *serverGen) NextSegment(now uint64, out *kernel.RefBuffer) kernel.Directive {
	g.h.em.SetOutput(out, g.h.chipOf(g.proc.CPU))
	switch g.phase {
	case serverPhaseTxn:
		// Receive the request, run the transaction body, arm the commit
		// wait. The log-writer signal fires when the CPU has actually
		// consumed these references, so the redo stores are globally visible
		// before the log writer reads them.
		g.h.kernelPipeRead(g)
		if g.h.scn != nil {
			return g.scenarioTxn()
		}
		in := g.h.eng.DrawTxn(g.rng)
		g.waitLSN = g.h.eng.ExecTxn(g.sess, in)
		g.h.kernelSemWait(g)
		g.phase = serverPhaseCommitted
		return kernel.Directive{Kind: kernel.Block, Drain: true}
	default:
		// Commit is durable: cleanup, reply to the client, next transaction.
		g.h.eng.PostCommit(g.sess)
		g.h.kernelPipeWrite(g)
		g.phase = serverPhaseTxn
		return kernel.Directive{Kind: kernel.Run, Drain: true}
	}
}

// Drained implements kernel.Generator. NextSegment has already moved
// g.phase on, so the phase names the segment that just drained: entering
// the committed phase, the update's redo is visible and the log writer is
// signalled; back in the transaction phase, the reply has gone out and the
// transaction counts as committed.
func (g *serverGen) Drained(now uint64) {
	if g.phase == serverPhaseCommitted {
		g.h.lgwr.requestFlush(g, now)
	} else {
		g.h.committed++
	}
}

// lgwrGen is the log writer daemon: it gathers unflushed redo out of the log
// buffer (pulling every line from the cache of the processor that wrote
// it), writes it to the log device, and posts the semaphores of every
// transaction covered by the write — group commit.
type lgwrGen struct {
	h    *Harness
	proc *kernel.Proc

	// waiters are the servers blocked on the log writer, each until its
	// waitLSN is durable.
	waiters  []*serverGen
	ioTarget uint64
	phase    int
}

const (
	lgwrPhaseIdle = iota
	lgwrPhaseIO
)

// requestFlush registers g's commit wait and kicks the daemon.
func (l *lgwrGen) requestFlush(g *serverGen, now uint64) {
	l.waiters = append(l.waiters, g)
	l.h.sched.Wake(l.proc, now)
}

// NextSegment implements kernel.Generator.
func (l *lgwrGen) NextSegment(now uint64, out *kernel.RefBuffer) kernel.Directive {
	l.h.em.SetOutput(out, l.h.chipOf(l.proc.CPU))
	switch l.phase {
	case lgwrPhaseIdle:
		target, bytes := l.h.eng.LogWriterGather()
		if bytes == 0 {
			return kernel.Directive{Kind: kernel.Block}
		}
		l.h.kernelIOSubmit(l.h.schedData[l.proc.CPU])
		l.ioTarget = target
		l.phase = lgwrPhaseIO
		dur := l.h.p.LogIOCycles + LogIOPerKB*uint64(bytes)/1024
		return kernel.Directive{Kind: kernel.IOWait, Dur: dur}
	default:
		// The write completed: mark durable and post every covered waiter.
		l.h.kernelIOIntr(l.h.schedData[l.proc.CPU])
		l.h.eng.LogWriterComplete(l.ioTarget)
		kept := l.waiters[:0]
		for _, w := range l.waiters {
			if w.waitLSN <= l.ioTarget {
				l.h.kernelSemPost(w.sem)
				l.h.sched.Wake(w.proc, now)
			} else {
				kept = append(kept, w)
			}
		}
		l.waiters = kept
		l.phase = lgwrPhaseIdle
		return kernel.Directive{Kind: kernel.Run}
	}
}

// Drained implements kernel.Generator; the log writer arms no drain action.
func (l *lgwrGen) Drained(uint64) {}

// dbwrGen is the database writer daemon: it periodically takes a batch of
// dirty buffers, cleans their headers (touching metadata dirtied by every
// processor), and writes them out.
type dbwrGen struct {
	h    *Harness
	proc *kernel.Proc

	phase int
}

const (
	dbwrPhaseScan = iota
	dbwrPhaseIO
)

// NextSegment implements kernel.Generator.
func (d *dbwrGen) NextSegment(now uint64, out *kernel.RefBuffer) kernel.Directive {
	d.h.em.SetOutput(out, d.h.chipOf(d.proc.CPU))
	switch d.phase {
	case dbwrPhaseScan:
		n := d.h.eng.DBWriterScan(DBWRBatch)
		if n == 0 {
			return kernel.Directive{Kind: kernel.Sleep, Until: now + d.h.p.DBWRSleepCycles}
		}
		d.h.kernelIOSubmit(d.h.schedData[d.proc.CPU])
		d.phase = dbwrPhaseIO
		return kernel.Directive{Kind: kernel.IOWait, Dur: d.h.p.DBWRIOCycles}
	default:
		d.h.kernelIOIntr(d.h.schedData[d.proc.CPU])
		d.phase = dbwrPhaseScan
		if d.h.eng.Pool().DirtyBacklog() > 4*DBWRBatch {
			return kernel.Directive{Kind: kernel.Run}
		}
		return kernel.Directive{Kind: kernel.Sleep, Until: now + d.h.p.DBWRSleepCycles}
	}
}

// Drained implements kernel.Generator; the database writer arms no drain
// action.
func (d *dbwrGen) Drained(uint64) {}
