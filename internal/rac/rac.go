// Package rac implements the remote access cache of paper Section 6: a
// large (8 MB 8-way) cache of *remote* lines only, whose data lives in a
// reserved portion of the node's local main memory while the tags are kept
// on the processor chip for fast lookup. A hit therefore costs local-memory
// latency (75 ns); a dirty line fetched out of a remote node's RAC costs
// 250 ns versus 200 ns from a remote L2.
//
// The RAC behaves as an exclusive victim cache below the L2: lines enter it
// when the L2 evicts a remote line, and a RAC hit promotes the line back to
// the L2. Because it is bigger than the L2 it holds dirty remote data
// longer before the data returns to its home — the mechanism behind the
// paper's observation that a RAC *increases* 3-hop misses and invalidation
// rates even as it converts 2-hop misses into local ones.
package rac

import "oltpsim/internal/cache"

// Stats counts RAC lookups; stats.RunResult.RACHitRate reports their ratio.
type Stats struct {
	Probes uint64
	Hits   uint64
}

// Ways is the RAC's associativity: 8-way at every size, as in paper
// Section 6.
const Ways = 8

// Geometry returns the tag-array geometry of a RAC of sizeBytes.
func Geometry(sizeBytes int64) cache.Config {
	return cache.Config{Name: "RAC", SizeBytes: sizeBytes, Assoc: Ways}
}

// RAC is one node's remote access cache.
type RAC struct {
	c     *cache.Cache
	Stats Stats
}

// New builds a RAC of sizeBytes.
func New(sizeBytes int64) *RAC {
	return &RAC{c: cache.New(Geometry(sizeBytes))}
}

// Take probes for line and removes it on a hit (exclusive with the L2),
// returning its state.
func (r *RAC) Take(line uint64) (cache.State, bool) {
	r.Stats.Probes++
	st := r.c.Access(line)
	if st == cache.Invalid {
		return cache.Invalid, false
	}
	r.Stats.Hits++
	r.c.Invalidate(line)
	return st, true
}

// Insert places an L2 victim into the RAC, returning the RAC's own victim
// (vstate Invalid if none).
func (r *RAC) Insert(line uint64, st cache.State) (victim uint64, vstate cache.State) {
	return r.c.Insert(line, st)
}

// Invalidate removes line (coherence invalidation), returning its prior
// state.
func (r *RAC) Invalidate(line uint64) cache.State { return r.c.Invalidate(line) }

// Downgrade demotes a Modified/Exclusive line to Shared (remote read).
func (r *RAC) Downgrade(line uint64) bool {
	if st := r.c.Probe(line); st == cache.Modified || st == cache.Exclusive {
		return r.c.SetState(line, cache.Shared)
	}
	return false
}

// Probe returns the state of line without side effects.
func (r *RAC) Probe(line uint64) cache.State { return r.c.Probe(line) }

// Occupancy returns the number of resident lines.
func (r *RAC) Occupancy() int { return r.c.Occupancy() }

// ResetStats zeroes counters.
func (r *RAC) ResetStats() { r.Stats = Stats{} }
