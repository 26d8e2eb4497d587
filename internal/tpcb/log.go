package tpcb

import "oltpsim/internal/memref"

// LogStats counts redo-log activity.
type LogStats struct {
	BytesWritten uint64
	Gathers      uint64
	Overruns     uint64 // writer caught up with unflushed tail (should stay 0)
}

// RedoLog is the circular redo log buffer plus its latches. Servers append
// redo under the redo-allocation latch (the hottest line in the SGA) and one
// of a few redo-copy latches; the log writer gathers the appended bytes —
// reading every line out of whichever processor's cache wrote it, a steady
// source of 3-hop misses on the multiprocessor — and writes them to disk,
// after which commits waiting on those bytes are acknowledged (group
// commit).
type RedoLog struct {
	em   Emitter
	code *ServerCode
	lt   *LatchTable

	base uint64
	size uint64

	// LSNs are monotonically increasing byte offsets; the buffer position is
	// lsn % size.
	nextLSN      uint64
	requestedLSN uint64 // highest commit LSN awaiting flush
	flushedLSN   uint64

	Stats LogStats
}

func newRedoLog(alloc Allocator, em Emitter, code *ServerCode, lt *LatchTable) *RedoLog {
	return &RedoLog{
		em:   em,
		code: code,
		lt:   lt,
		base: alloc.Alloc("sga.log_buffer", LogBufferBytes, KindShared),
		size: LogBufferBytes,
	}
}

// lineAddr maps an LSN to its line address in the circular buffer.
func (l *RedoLog) lineAddr(lsn uint64) uint64 {
	return l.base + (lsn%l.size)&^uint64(memref.LineBytes-1)
}

// Append allocates n bytes of redo, copies them into the buffer (emitting
// the stores), and returns the LSN one past the record. commit marks the
// record as one a session will wait on.
func (l *RedoLog) Append(n int, commit bool, copyLatch int) uint64 {
	l.Stats.BytesWritten += uint64(n)

	// Allocation: the single redo allocation latch serializes LSN claims.
	l.lt.Acquire(latchRedoAlloc)
	start := l.nextLSN
	l.nextLSN += uint64(n)
	l.lt.Release(latchRedoAlloc)

	if l.nextLSN-l.flushedLSN > l.size {
		// The buffer wrapped onto unflushed redo. Real Oracle stalls the
		// session ("log buffer space"); our log writer keeps up in practice,
		// so we count the event and advance flushed to stay functional.
		l.Stats.Overruns++
		l.flushedLSN = l.nextLSN - l.size
	}

	// Copy under one of the redo copy latches.
	l.em.Code(l.code.RedoCopy)
	l.lt.Acquire(latchRedoCopy0 + copyLatch%numRedoCopy)
	for off := uint64(0); off < uint64(n); off += memref.LineBytes {
		l.em.Store(l.lineAddr(start+off), false)
	}
	l.lt.Release(latchRedoCopy0 + copyLatch%numRedoCopy)

	if commit {
		l.requestedLSN = l.nextLSN
	}
	return l.nextLSN
}

// RequestedLSN returns the highest LSN a committing session is waiting on.
func (l *RedoLog) RequestedLSN() uint64 { return l.requestedLSN }

// FlushedLSN returns the LSN through which redo is durably on disk.
func (l *RedoLog) FlushedLSN() uint64 { return l.flushedLSN }

// Gather is the log writer's read of the unflushed region [flushed, target):
// it emits a load of every line (pulling each from the writing processor's
// cache) and returns the byte count to be written to disk. target must not
// exceed nextLSN.
func (l *RedoLog) Gather(target uint64) int {
	if target > l.nextLSN {
		panic("tpcb: log gather beyond appended redo")
	}
	if target <= l.flushedLSN {
		return 0
	}
	l.Stats.Gathers++
	l.em.Code(l.code.LgwrMain)
	from := l.flushedLSN &^ uint64(memref.LineBytes-1)
	for off := from; off < target; off += memref.LineBytes {
		l.em.Load(l.lineAddr(off), false)
	}
	return int(target - l.flushedLSN)
}

// MarkFlushed advances the durable LSN after the disk write completes.
func (l *RedoLog) MarkFlushed(lsn uint64) {
	if lsn > l.flushedLSN {
		l.flushedLSN = lsn
	}
}

// Pending reports whether unflushed commit redo exists.
func (l *RedoLog) Pending() bool { return l.requestedLSN > l.flushedLSN }
