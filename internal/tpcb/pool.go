package tpcb

import (
	"fmt"

	"oltpsim/internal/memref"
)

// PoolStats counts buffer-pool activity.
type PoolStats struct {
	Gets      uint64
	Misses    uint64 // block not resident (disk read required)
	Evictions uint64
	Cleaned   uint64 // DBWR write-outs
}

// BufferPool is the SGA block buffer area: frames holding database blocks,
// found through a hash of cache-buffers-chains buckets, each get pinning the
// buffer header. Headers are written on every get (pin count, touch count),
// which is the main source of migratory sharing on hot blocks — exactly the
// communication misses the paper attributes to the SGA metadata area.
type BufferPool struct {
	cfg  *Config
	em   Emitter
	code *ServerCode
	lt   *LatchTable

	frames []frame
	// blockToFrame maps each database block to the frame holding it, -1
	// when the block is not resident.
	//oltpvet:derived not saved: LoadState rebuilds the index from each decoded frame's block assignment
	blockToFrame []int32
	free         []int32
	clock        uint64

	// dirty tracking for the database writer
	dirtyQueue []int32

	// simulated addresses
	hdrBase    uint64 // one line per frame (buffer headers)
	bucketBase uint64 // one line per hash bucket
	blockBase  uint64 // the block buffer itself (BlockBytes per frame slot, addressed by block number)

	Stats PoolStats
}

type frame struct {
	block   int32 // -1 when free
	dirty   bool
	inDirty bool // already queued for DBWR
	lastUse uint64
}

func newBufferPool(cfg *Config, alloc Allocator, em Emitter, code *ServerCode, lt *LatchTable) *BufferPool {
	p := &BufferPool{
		cfg:          cfg,
		em:           em,
		code:         code,
		lt:           lt,
		frames:       make([]frame, cfg.BufferFrames),
		free:         make([]int32, cfg.BufferFrames),
		blockToFrame: make([]int32, cfg.TotalBlocks()),
		hdrBase:      alloc.Alloc("sga.buffer_headers", uint64(cfg.BufferFrames)*memref.LineBytes, KindShared),
		bucketBase:   alloc.Alloc("sga.hash_buckets", uint64(cfg.HashBuckets)*memref.LineBytes, KindShared),
		blockBase:    alloc.Alloc("sga.block_buffer", uint64(cfg.TotalBlocks())*BlockBytes, KindShared),
	}
	for i := range p.frames {
		p.frames[i].block = -1
		p.free[i] = int32(i)
	}
	for b := range p.blockToFrame {
		p.blockToFrame[b] = -1
	}
	return p
}

// HeaderAddr returns the buffer header line of frame f.
func (p *BufferPool) HeaderAddr(f int32) uint64 {
	return p.hdrBase + uint64(f)*memref.LineBytes
}

// BlockAddr returns the address of byte off within block b's buffer. Blocks
// are addressed by block number: the pool holds every block in steady state
// (paper setup: the SGA caches the whole database), so a stable mapping both
// simplifies the model and matches the measured system.
func (p *BufferPool) BlockAddr(b int32, off int) uint64 {
	return p.blockBase + uint64(b)*BlockBytes + uint64(off)
}

func (p *BufferPool) bucketOf(b int32) int {
	// Multiplicative hash; buckets are a power of two in the default config
	// but this works for any size.
	h := uint64(b) * 0x9e3779b97f4a7c15
	return int(h % uint64(p.cfg.HashBuckets))
}

// Get pins block b, emitting the cache-buffers-chains walk: CBC latch,
// bucket header, buffer header probe, and the pin/touch update of the
// header. It returns the frame and whether the block had to be read from
// disk (miss).
func (p *BufferPool) Get(b int32) (f int32, missed bool) {
	p.Stats.Gets++
	p.em.Code(p.code.BufGet)
	bucket := p.bucketOf(b)
	latch := p.lt.CBC(bucket, p.cfg.CBCLatches)
	p.lt.Acquire(latch)
	p.em.Load(p.bucketBase+uint64(bucket)*memref.LineBytes, false)

	f = p.blockToFrame[b]
	missed = f < 0
	if missed {
		p.Stats.Misses++
		f = p.allocFrame(b)
	}
	// Header probe then the pin/touch-count update — a store of the header
	// line on every get.
	h := p.HeaderAddr(f)
	p.em.Load(h, true)
	p.em.Store(h, false)
	p.lt.Release(latch)

	p.clock++
	p.frames[f].lastUse = p.clock
	return f, missed
}

// Unpin emits the pin-release write of the header (post-commit cleanup).
func (p *BufferPool) Unpin(f int32) {
	p.em.Store(p.HeaderAddr(f), false)
}

// MarkDirty flags the frame dirty and queues it for the database writer on
// the clean->dirty transition.
func (p *BufferPool) MarkDirty(f int32) {
	fr := &p.frames[f]
	fr.dirty = true
	if !fr.inDirty {
		fr.inDirty = true
		p.dirtyQueue = append(p.dirtyQueue, f)
	}
}

// allocFrame finds a frame for block b, evicting if necessary.
func (p *BufferPool) allocFrame(b int32) int32 {
	var f int32
	if n := len(p.free); n > 0 {
		f = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		f = p.evict()
	}
	p.frames[f].block = b
	p.frames[f].dirty = false
	p.frames[f].inDirty = false
	p.blockToFrame[b] = f
	return f
}

// evict reclaims the least-recently-used frame. The default configuration
// holds the whole database, so this path only runs in deliberately
// undersized ablation configurations; a linear scan is acceptable there.
func (p *BufferPool) evict() int32 {
	p.em.Code(p.code.BufRepl)
	p.lt.Acquire(latchLRU0)
	best := int32(-1)
	var bestUse uint64
	for i := range p.frames {
		fr := &p.frames[i]
		if fr.block < 0 {
			continue
		}
		if best < 0 || fr.lastUse < bestUse {
			best, bestUse = int32(i), fr.lastUse
		}
	}
	if best < 0 {
		panic("tpcb: buffer pool has no evictable frame")
	}
	fr := &p.frames[best]
	p.blockToFrame[fr.block] = -1
	// A dirty victim is handed to the write queue (asynchronous write).
	if fr.dirty {
		p.em.Store(p.HeaderAddr(best), false)
	}
	fr.block = -1
	fr.dirty = false
	p.Stats.Evictions++
	p.lt.Release(latchLRU0)
	return best
}

// Prewarm makes every database block resident without emitting references,
// modelling the steady state the paper positions its workload into before
// measuring.
func (p *BufferPool) Prewarm(totalBlocks int) {
	if totalBlocks > len(p.frames) {
		panic(fmt.Sprintf("tpcb: prewarm of %d blocks exceeds %d frames", totalBlocks, len(p.frames)))
	}
	for b := 0; b < totalBlocks; b++ {
		if p.blockToFrame[b] >= 0 {
			continue
		}
		f := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		p.frames[f].block = int32(b)
		p.blockToFrame[int32(b)] = f
	}
}

// PopDirty removes up to max frames from the dirty queue for the database
// writer, returning the frames still dirty at pop time.
func (p *BufferPool) PopDirty(max int) []int32 {
	out := make([]int32, 0, max)
	for len(p.dirtyQueue) > 0 && len(out) < max {
		f := p.dirtyQueue[0]
		p.dirtyQueue = p.dirtyQueue[1:]
		fr := &p.frames[f]
		fr.inDirty = false
		if fr.dirty {
			out = append(out, f)
		}
	}
	return out
}

// Clean marks frame f clean (DBWR completed its write) and emits the header
// update.
func (p *BufferPool) Clean(f int32) {
	p.em.Load(p.HeaderAddr(f), false)
	p.em.Store(p.HeaderAddr(f), false)
	if p.frames[f].dirty {
		p.frames[f].dirty = false
		p.Stats.Cleaned++
	}
}

// DirtyBacklog returns the number of queued dirty frames.
func (p *BufferPool) DirtyBacklog() int { return len(p.dirtyQueue) }

// CheckConsistency verifies the pool's structural invariants: the
// block-to-frame index is a bijection onto occupied frames, and no free
// frame claims a block. Every occupied frame must have its block's index
// entry, and an index with no more resident blocks than there are occupied
// frames can hold nothing else.
func (p *BufferPool) CheckConsistency() error {
	occupied := 0
	for i := range p.frames {
		b := p.frames[i].block
		if b < 0 {
			continue
		}
		occupied++
		if f := p.blockToFrame[b]; f != int32(i) {
			return fmt.Errorf("tpcb: frame %d holds block %d but the index sends it to frame %d", i, b, f)
		}
	}
	indexed := 0
	for _, f := range p.blockToFrame {
		if f >= 0 {
			indexed++
		}
	}
	if occupied != indexed {
		return fmt.Errorf("tpcb: %d occupied frames but %d indexed blocks", occupied, indexed)
	}
	return nil
}

// Resident returns the number of occupied frames.
func (p *BufferPool) Resident() int {
	n := 0
	for i := range p.frames {
		if p.frames[i].block >= 0 {
			n++
		}
	}
	return n
}
