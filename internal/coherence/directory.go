// Package coherence implements the directory-based invalidation protocol of
// the simulated ccNUMA multiprocessor (paper Section 2.3: 8 processor nodes,
// distributed memory, directory-based coherence, sequential consistency).
//
// The protocol is MESI at the caches with a full-map directory per home node.
// Every L2 miss becomes a directory transaction, classified exactly the way
// the paper reports misses: serviced by local memory, by remote memory
// ("remote clean", 2-hop), or by a dirty copy in a remote cache ("remote
// dirty", 3-hop). When a remote access cache (RAC, paper Section 6) holds the
// dirty copy, the transaction is classified separately because the paper
// charges it a higher latency (250 ns vs. 200 ns in the fully integrated
// configuration).
package coherence

import (
	"fmt"

	"oltpsim/internal/cache"
)

// MaxNodes bounds the sharer bit-vector. The paper's multiprocessor has 8
// nodes; we allow up to 128 so scaling experiments are possible.
const MaxNodes = 128

// sharerWords is the number of 64-bit words in a sharer set.
const sharerWords = MaxNodes / 64

// sharerSet is a fixed-width bit-vector with one bit per node. It is a
// comparable value type, so whole-set equality tests (`s == only(node)`)
// keep working across the word boundary.
type sharerSet [sharerWords]uint64

func only(node int) sharerSet {
	var s sharerSet
	s.add(node)
	return s
}

func (s *sharerSet) add(node int)     { s[node>>6] |= 1 << uint(node&63) }
func (s *sharerSet) remove(node int)  { s[node>>6] &^= 1 << uint(node&63) }
func (s sharerSet) has(node int) bool { return s[node>>6]&(1<<uint(node&63)) != 0 }

func (s sharerSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// beyond reports whether any bit at position >= nodes is set.
func (s sharerSet) beyond(nodes int) bool {
	for i := nodes; i < MaxNodes; i++ {
		if s.has(i) {
			return true
		}
	}
	return false
}

// Category classifies where a memory transaction was serviced from, which
// determines both its latency (core.LatencyTable) and its statistics bucket.
type Category uint8

const (
	// CatLocal: serviced by the requester's own memory (home is local and the
	// line is clean), or by the requester's own RAC.
	CatLocal Category = iota
	// CatRemoteClean: serviced by a remote home memory; a two-network-hop
	// transaction.
	CatRemoteClean
	// CatRemoteDirty: serviced by a dirty copy in a remote processor's L2
	// cache; a three-hop transaction (requester -> home -> owner ->
	// requester).
	CatRemoteDirty
	// CatRemoteDirtyRAC: like CatRemoteDirty, but the dirty copy lives in the
	// remote node's memory-backed RAC, which responds more slowly than its
	// L2.
	CatRemoteDirtyRAC
	// NumCategories is the number of classification buckets.
	NumCategories
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CatLocal:
		return "local"
	case CatRemoteClean:
		return "remote-clean"
	case CatRemoteDirty:
		return "remote-dirty"
	case CatRemoteDirtyRAC:
		return "remote-dirty-rac"
	default:
		return "?"
	}
}

// Peers is how the directory reaches into the caches of other nodes to apply
// invalidations and downgrades. The system model implements it; tests use
// lightweight fakes.
type Peers interface {
	// InvalidatePeer removes line from every structure at node (L1s, L2,
	// RAC, victim buffers) and reports whether any copy was dirty.
	InvalidatePeer(node int, line uint64) (wasDirty bool)
	// DowngradePeer demotes node's Modified/Exclusive copy of line to Shared
	// and reports whether it was dirty. The report is authoritative: a line
	// granted Exclusive may have been modified silently, so the directory's
	// own dirty flag is only a hint.
	DowngradePeer(node int, line uint64) (wasDirty bool)
}

// HomeFunc maps a line address to its home node (where the backing memory
// and directory entry live). The kernel's page-placement policy provides it.
type HomeFunc func(line uint64) int

// entry is the directory state for one line. The zero value means
// "uncached, clean at home". owner holds node+1 so that the zero value is
// "no owner".
type entry struct {
	sharers sharerSet // bit per node with a (possibly clean-exclusive) copy
	owner   int16     // node+1 with M/E rights, 0 if none
	dirty   bool      // owner's copy differs from home memory
	inRAC   bool      // owner's copy lives in its RAC, not its L2
}

func (e entry) hasOwner() bool { return e.owner != 0 }
func (e entry) ownerNode() int { return int(e.owner) - 1 }

// Result describes the outcome of a directory transaction.
type Result struct {
	// Cat is the service classification (drives latency and miss stats).
	Cat Category
	// Grant is the MESI state the requester installs in its L2.
	Grant cache.State
	// Upgrade is true when no data moved: the requester already held a
	// shared copy and only needed write permission.
	Upgrade bool
	// Invalidations is the number of invalidation messages this transaction
	// sent to other nodes.
	Invalidations int
}

// Stats aggregates protocol activity. All counters are monotonically
// increasing until ResetStats.
type Stats struct {
	Reads         [NumCategories]uint64
	Writes        [NumCategories]uint64 // write misses; upgrades are not counted
	Invalidations uint64
	Writebacks    uint64 // dirty data returned to home memory
}

// Directory is the full-map directory for the whole machine. Entries are
// held in one open-addressed table keyed by line address; the home node of
// each line is a function of the address, so a per-node split would only
// shard the table.
type Directory struct {
	nodes   int
	home    HomeFunc
	peers   Peers
	entries *lineTable

	// Migratory enables the migratory-sharing optimization (Cox & Fowler
	// style, standard in directory protocols of the paper's era): a read
	// miss that finds the line dirty in another cache transfers *exclusive*
	// ownership instead of downgrading the owner to shared. OLTP metadata is
	// overwhelmingly migratory (latches, buffer headers, hot rows follow
	// whichever processor runs the transaction), so without this every hot
	// read-modify-write would pay a 3-hop read plus a 2-hop upgrade. It is
	// on by default; the ablation benchmarks measure its effect.
	Migratory bool

	// Stats is exported for the harness to read and reset.
	Stats Stats
}

// New creates a directory for a machine with nodes processors. home maps a
// line to its home node and peers applies invalidations/downgrades. The
// line table starts at its minimum size and doubles as lines are cached, so
// a machine holds memory for the lines it has seen: 31k-60k entries in
// 64k-128k slots after 5,000 transactions at paper scale.
func New(nodes int, home HomeFunc, peers Peers) *Directory {
	if nodes <= 0 || nodes > MaxNodes {
		panic(fmt.Sprintf("coherence: node count %d out of range 1..%d", nodes, MaxNodes))
	}
	return &Directory{
		nodes:     nodes,
		home:      home,
		peers:     peers,
		entries:   newLineTable(0),
		Migratory: true,
	}
}

// Nodes returns the machine size.
func (d *Directory) Nodes() int { return d.nodes }

// Home exposes the home mapping (used by the system model to decide whether
// a line is a candidate for the RAC — only remote lines are).
func (d *Directory) Home(line uint64) int { return d.home(line) }

// Read services a read miss for line by node. It mutates directory state,
// downgrades a remote owner if necessary, and returns the classification and
// the MESI state to install.
func (d *Directory) Read(line uint64, node int) Result {
	// ref gives one probe for the whole read-modify-write; the peer
	// callbacks below never insert into the table, so the pointer stays
	// valid across them.
	p := d.entries.ref(line)
	e := *p
	homeNode := d.home(line)
	res := Result{}

	switch {
	case e.hasOwner() && e.ownerNode() != node:
		// Some other node holds M or E rights. Probe it: the downgrade
		// reveals whether the copy was actually dirty (a silently-upgraded
		// E line makes the directory's own flag a hint only).
		owner := e.ownerNode()
		wasDirty := d.peers.DowngradePeer(owner, line)
		switch {
		case wasDirty && d.Migratory:
			// Migratory optimization: dirty data follows the readers —
			// transfer exclusive ownership instead of sharing, so the
			// reader's forthcoming write needs no second transaction. The
			// owner's (now Shared) residue is reclaimed; no home writeback.
			d.peers.InvalidatePeer(owner, line)
			if e.inRAC {
				res.Cat = CatRemoteDirtyRAC
			} else {
				res.Cat = CatRemoteDirty
			}
			e.dirty = true
			e.inRAC = false
			e.owner = int16(node + 1)
			e.sharers = only(node)
			res.Grant = cache.Modified
		case wasDirty:
			// Dirty data is forwarded by the owner (3-hop) and written back
			// to home as a side effect (DASH-style sharing writeback).
			if e.inRAC {
				res.Cat = CatRemoteDirtyRAC
			} else {
				res.Cat = CatRemoteDirty
			}
			d.Stats.Writebacks++
			e.dirty = false
			e.inRAC = false
			e.owner = 0
			e.sharers.add(owner)
			e.sharers.add(node)
			res.Grant = cache.Shared
		default:
			// Clean-exclusive at the owner: home memory is current, so the
			// data comes from home while the owner is demoted in parallel.
			res.Cat = categoryFromHome(homeNode, node)
			e.dirty = false
			e.inRAC = false
			e.owner = 0
			e.sharers.add(owner)
			e.sharers.add(node)
			res.Grant = cache.Shared
		}
	case !e.sharers.empty() && e.sharers != only(node):
		// Shared by others; data from home memory.
		res.Cat = categoryFromHome(homeNode, node)
		e.sharers.add(node)
		res.Grant = cache.Shared
	default:
		// Uncached (or only a stale self-sharer bit): grant Exclusive so
		// private data can later be written without a second transaction.
		res.Cat = categoryFromHome(homeNode, node)
		e.sharers = only(node)
		e.owner = int16(node + 1)
		e.dirty = false
		e.inRAC = false
		res.Grant = cache.Exclusive
	}

	*p = e
	d.Stats.Reads[res.Cat]++
	return res
}

// Write services a write miss or an upgrade for line by node: every other
// copy is invalidated and node becomes the dirty owner.
func (d *Directory) Write(line uint64, node int) Result {
	p := d.entries.ref(line)
	e := *p
	homeNode := d.home(line)
	res := Result{}

	switch {
	case e.hasOwner() && e.ownerNode() != node:
		// Dirty or clean-exclusive at another node: ownership transfer.
		owner := e.ownerNode()
		wasDirty := d.peers.InvalidatePeer(owner, line)
		res.Invalidations = 1
		if wasDirty {
			if e.inRAC {
				res.Cat = CatRemoteDirtyRAC
			} else {
				res.Cat = CatRemoteDirty
			}
		} else {
			res.Cat = categoryFromHome(homeNode, node)
		}
	case !e.sharers.empty():
		// Shared: invalidate every other sharer; if the requester was among
		// the sharers this is a pure upgrade (permission only, no data).
		res.Upgrade = e.sharers.has(node)
		for n := 0; n < d.nodes; n++ {
			if n != node && e.sharers.has(n) {
				d.peers.InvalidatePeer(n, line)
				res.Invalidations++
			}
		}
		res.Cat = categoryFromHome(homeNode, node)
	default:
		// Uncached.
		res.Cat = categoryFromHome(homeNode, node)
	}

	e.sharers = only(node)
	e.owner = int16(node + 1)
	e.dirty = true
	e.inRAC = false
	*p = e

	d.Stats.Invalidations += uint64(res.Invalidations)
	if !res.Upgrade {
		d.Stats.Writes[res.Cat]++
	}
	res.Grant = cache.Modified
	return res
}

// WritebackDirty records that node evicted its dirty copy of line all the
// way to home memory.
func (d *Directory) WritebackDirty(line uint64, node int) {
	e := d.entries.get(line)
	if !e.hasOwner() || e.ownerNode() != node {
		panic(fmt.Sprintf("coherence: writeback of line %#x by non-owner node %d", line, node))
	}
	e.owner = 0
	e.dirty = false
	e.inRAC = false
	e.sharers.remove(node)
	d.storeOrDelete(line, e)
	d.Stats.Writebacks++
}

// EvictClean records a replacement hint: node dropped its clean copy.
func (d *Directory) EvictClean(line uint64, node int) {
	e := d.entries.get(line)
	if e.hasOwner() && e.ownerNode() == node {
		// Silently held E copy evicted; home memory is already current.
		e.owner = 0
		e.dirty = false
		e.inRAC = false
	}
	e.sharers.remove(node)
	d.storeOrDelete(line, e)
}

// MoveToRAC records that node's copy of line migrated from its L2 into its
// RAC. The node remains a sharer/owner; only the location flag changes, so a
// later 3-hop request is charged the slower RAC-sourced latency.
func (d *Directory) MoveToRAC(line uint64, node int) {
	if p := d.entries.find(line); p != nil && p.hasOwner() && p.ownerNode() == node {
		p.inRAC = true
	}
}

// MoveToL2 records the reverse migration (a RAC hit promoted the line back
// into the node's L2).
func (d *Directory) MoveToL2(line uint64, node int) {
	if p := d.entries.find(line); p != nil && p.hasOwner() && p.ownerNode() == node && p.inRAC {
		p.inRAC = false
	}
}

// SharerCount returns how many nodes hold line (for tests and invariants).
func (d *Directory) SharerCount(line uint64) int {
	e := d.entries.get(line)
	n := 0
	for i := 0; i < d.nodes; i++ {
		if e.sharers.has(i) {
			n++
		}
	}
	return n
}

// OwnerOf returns the owning node and whether its copy is dirty; owner is -1
// when no node has M/E rights.
func (d *Directory) OwnerOf(line uint64) (owner int, dirty bool) {
	e := d.entries.get(line)
	if !e.hasOwner() {
		return -1, false
	}
	return e.ownerNode(), e.dirty
}

// OwnerInRAC reports whether the owner's copy is flagged as living in its
// RAC.
func (d *Directory) OwnerInRAC(line uint64) bool { return d.entries.get(line).inRAC }

// IsSharer reports whether node holds a copy of line per the directory.
func (d *Directory) IsSharer(line uint64, node int) bool {
	return d.entries.get(line).sharers.has(node)
}

// Entries returns the number of lines with non-default directory state.
func (d *Directory) Entries() int { return d.entries.live }

// ResetStats zeroes protocol counters (after warmup) without touching state.
func (d *Directory) ResetStats() { d.Stats = Stats{} }

func (d *Directory) storeOrDelete(line uint64, e entry) {
	if e.sharers.empty() && !e.hasOwner() {
		d.entries.del(line)
		return
	}
	*d.entries.ref(line) = e
}

func categoryFromHome(home, requester int) Category {
	if home == requester {
		return CatLocal
	}
	return CatRemoteClean
}
