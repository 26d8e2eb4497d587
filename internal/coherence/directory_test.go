package coherence

import (
	"bytes"
	"testing"
	"testing/quick"

	"oltpsim/internal/cache"
	"oltpsim/internal/sim"
	"oltpsim/internal/snapshot"
)

// fakePeers is a model of per-node caches precise enough for the protocol:
// it tracks each node's state per line.
type fakePeers struct {
	nodes int
	state map[uint64][]cache.State // line -> per-node state

	invalidations int
	downgrades    int
}

func newFakePeers(nodes int) *fakePeers {
	return &fakePeers{nodes: nodes, state: map[uint64][]cache.State{}}
}

func (f *fakePeers) of(line uint64) []cache.State {
	s, ok := f.state[line]
	if !ok {
		s = make([]cache.State, f.nodes)
		f.state[line] = s
	}
	return s
}

// set installs a line at a node (mirrors what a cache fill does).
func (f *fakePeers) set(line uint64, node int, st cache.State) { f.of(line)[node] = st }

func (f *fakePeers) InvalidatePeer(node int, line uint64) bool {
	f.invalidations++
	s := f.of(line)
	dirty := s[node] == cache.Modified
	s[node] = cache.Invalid
	return dirty
}

func (f *fakePeers) DowngradePeer(node int, line uint64) bool {
	f.downgrades++
	s := f.of(line)
	dirty := s[node] == cache.Modified
	if s[node] == cache.Modified || s[node] == cache.Exclusive {
		s[node] = cache.Shared
	}
	return dirty
}

func setup(nodes int) (*Directory, *fakePeers) {
	p := newFakePeers(nodes)
	d := New(nodes, func(line uint64) int { return int(line>>6) % nodes }, p)
	return d, p
}

// apply mirrors a transaction result into the fake caches.
func apply(p *fakePeers, line uint64, node int, res Result) {
	p.set(line, node, res.Grant)
}

func TestFirstReadGrantsExclusive(t *testing.T) {
	d, p := setup(4)
	res := d.Read(64, 2) // home of line 64 is node 1, so this is remote
	apply(p, 64, 2, res)
	if res.Grant != cache.Exclusive {
		t.Fatalf("grant = %v, want Exclusive", res.Grant)
	}
	if res.Cat != CatRemoteClean {
		t.Fatalf("cat = %v (home=%d)", res.Cat, d.Home(64))
	}
	if owner, dirty := d.OwnerOf(64); owner != 2 || dirty {
		t.Fatalf("owner = %d dirty %v", owner, dirty)
	}
}

func TestLocalVsRemoteCategory(t *testing.T) {
	d, _ := setup(4)
	line := uint64(2 * 64) // home = node 2
	if d.Home(line) != 2 {
		t.Fatal("home mapping unexpected")
	}
	res := d.Read(line, 2)
	if res.Cat != CatLocal {
		t.Fatalf("read at home: cat %v", res.Cat)
	}
	d2, _ := setup(4)
	res = d2.Read(line, 0)
	if res.Cat != CatRemoteClean {
		t.Fatalf("remote read: cat %v", res.Cat)
	}
}

func TestMigratoryDirtyRead(t *testing.T) {
	d, p := setup(4)
	line := uint64(64)
	apply(p, line, 0, d.Write(line, 0)) // node 0 owns dirty
	res := d.Read(line, 3)
	apply(p, line, 3, res)
	if res.Cat != CatRemoteDirty {
		t.Fatalf("cat = %v, want remote-dirty", res.Cat)
	}
	if res.Grant != cache.Modified {
		t.Fatalf("migratory grant = %v, want Modified", res.Grant)
	}
	if owner, dirty := d.OwnerOf(line); owner != 3 || !dirty {
		t.Fatalf("owner after migration = %d dirty %v", owner, dirty)
	}
	if d.IsSharer(line, 0) {
		t.Fatal("old owner still a sharer after migration")
	}
	// No home writeback happened: ownership moved.
	if d.Stats.Writebacks != 0 {
		t.Fatalf("writebacks = %d, want 0", d.Stats.Writebacks)
	}
}

func TestNonMigratoryDirtyRead(t *testing.T) {
	d, p := setup(4)
	d.Migratory = false
	line := uint64(64)
	apply(p, line, 0, d.Write(line, 0))
	res := d.Read(line, 3)
	apply(p, line, 3, res)
	if res.Cat != CatRemoteDirty || res.Grant != cache.Shared {
		t.Fatalf("non-migratory: cat %v grant %v", res.Cat, res.Grant)
	}
	if owner, _ := d.OwnerOf(line); owner != -1 {
		t.Fatalf("owner %d after sharing writeback", owner)
	}
	if !d.IsSharer(line, 0) || !d.IsSharer(line, 3) {
		t.Fatal("both nodes should share the line")
	}
	if d.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1 (sharing writeback)", d.Stats.Writebacks)
	}
}

func TestCleanExclusiveReadComesFromHome(t *testing.T) {
	d, p := setup(4)
	line := uint64(64)
	apply(p, line, 0, d.Read(line, 0)) // E, clean
	res := d.Read(line, 2)
	if res.Cat != CatRemoteClean {
		t.Fatalf("clean-E read: cat %v, want remote-clean (data from home)", res.Cat)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d, p := setup(8)
	line := uint64(64)
	d.Migratory = false
	apply(p, line, 0, d.Write(line, 0))
	apply(p, line, 1, d.Read(line, 1)) // 0,1 share now
	apply(p, line, 2, d.Read(line, 2))
	res := d.Write(line, 5)
	apply(p, line, 5, res)
	if res.Invalidations != 3 {
		t.Fatalf("invalidations = %d, want 3 (nodes 0,1,2)", res.Invalidations)
	}
	if res.Upgrade {
		t.Fatal("writer was not a sharer; not an upgrade")
	}
	if d.SharerCount(line) != 1 || !d.IsSharer(line, 5) {
		t.Fatal("writer is not sole sharer")
	}
}

func TestUpgrade(t *testing.T) {
	d, p := setup(4)
	d.Migratory = false
	line := uint64(64)
	apply(p, line, 0, d.Write(line, 0))
	apply(p, line, 1, d.Read(line, 1)) // share 0,1
	res := d.Write(line, 1)            // 1 upgrades
	if !res.Upgrade {
		t.Fatal("expected an upgrade")
	}
	if res.Invalidations != 1 {
		t.Fatalf("upgrade invalidations = %d, want 1", res.Invalidations)
	}
}

func TestDirtyWriteMiss(t *testing.T) {
	d, p := setup(4)
	line := uint64(64)
	apply(p, line, 0, d.Write(line, 0))
	res := d.Write(line, 2)
	if res.Cat != CatRemoteDirty || res.Invalidations != 1 {
		t.Fatalf("dirty write miss: cat %v inv %d", res.Cat, res.Invalidations)
	}
}

func TestWritebackDirty(t *testing.T) {
	d, p := setup(4)
	line := uint64(64)
	apply(p, line, 0, d.Write(line, 0))
	d.WritebackDirty(line, 0)
	if owner, _ := d.OwnerOf(line); owner != -1 {
		t.Fatal("owner remains after writeback")
	}
	if d.Entries() != 0 {
		t.Fatalf("entry not reclaimed: %d", d.Entries())
	}
	// Next read is clean from home.
	if res := d.Read(line, 1); res.Cat != CatRemoteClean && res.Cat != CatLocal {
		t.Fatalf("read after writeback: cat %v", res.Cat)
	}
}

func TestWritebackByNonOwnerPanics(t *testing.T) {
	d, p := setup(4)
	apply(p, 64, 0, d.Write(64, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("writeback by non-owner did not panic")
		}
	}()
	d.WritebackDirty(64, 1)
}

func TestEvictClean(t *testing.T) {
	d, p := setup(4)
	line := uint64(64)
	apply(p, line, 0, d.Read(line, 0)) // E at node 0
	d.EvictClean(line, 0)
	if d.Entries() != 0 {
		t.Fatal("entry not reclaimed after clean eviction of sole copy")
	}
}

func TestRACLocationFlag(t *testing.T) {
	d, p := setup(4)
	line := uint64(64)
	apply(p, line, 0, d.Write(line, 0))
	d.MoveToRAC(line, 0)
	if !d.OwnerInRAC(line) {
		t.Fatal("inRAC flag not set")
	}
	// A read must now be classified as RAC-sourced dirty.
	res := d.Read(line, 2)
	if res.Cat != CatRemoteDirtyRAC {
		t.Fatalf("cat = %v, want remote-dirty-rac", res.Cat)
	}
	// And back.
	d2, p2 := setup(4)
	apply(p2, line, 0, d2.Write(line, 0))
	d2.MoveToRAC(line, 0)
	d2.MoveToL2(line, 0)
	if d2.OwnerInRAC(line) {
		t.Fatal("inRAC flag not cleared")
	}
}

func TestMoveToRACByNonOwnerIsNoop(t *testing.T) {
	d, p := setup(4)
	apply(p, 64, 0, d.Write(64, 0))
	d.MoveToRAC(64, 1)
	if d.OwnerInRAC(64) {
		t.Fatal("non-owner MoveToRAC set the flag")
	}
}

func TestNodeBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 0 nodes did not panic")
		}
	}()
	New(0, func(uint64) int { return 0 }, newFakePeers(1))
}

func TestResetStats(t *testing.T) {
	d, p := setup(2)
	apply(p, 64, 0, d.Write(64, 0))
	d.ResetStats()
	if d.Stats != (Stats{}) {
		t.Fatal("stats not zeroed")
	}
	if owner, _ := d.OwnerOf(64); owner != 0 {
		t.Fatal("state lost on stats reset")
	}
}

func TestCategoryString(t *testing.T) {
	want := map[Category]string{
		CatLocal: "local", CatRemoteClean: "remote-clean",
		CatRemoteDirty: "remote-dirty", CatRemoteDirtyRAC: "remote-dirty-rac",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

// TestProtocolInvariants drives random traffic and checks global protocol
// invariants after every step: at most one owner, the owner is always a
// sharer, no node is Modified without directory ownership, and the fake
// cache states stay consistent with the directory's sharer vector.
func TestProtocolInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		const nodes = 8
		d, p := setup(nodes)
		if r.Bool(0.5) {
			d.Migratory = false
		}
		lines := []uint64{0, 64, 128, 192, 256}
		for step := 0; step < 600; step++ {
			line := lines[r.Intn(len(lines))]
			node := r.Intn(nodes)
			st := p.of(line)[node]
			switch r.Intn(4) {
			case 0: // read (only when not already present)
				if st == cache.Invalid {
					apply(p, line, node, d.Read(line, node))
				}
			case 1: // write miss or upgrade
				if st == cache.Invalid || st == cache.Shared {
					apply(p, line, node, d.Write(line, node))
				} else {
					// silent E->M upgrade
					p.set(line, node, cache.Modified)
				}
			case 2: // evict
				switch st {
				case cache.Modified:
					d.WritebackDirty(line, node)
					p.set(line, node, cache.Invalid)
				case cache.Shared, cache.Exclusive:
					d.EvictClean(line, node)
					p.set(line, node, cache.Invalid)
				}
			case 3: // RAC migration flag exercises
				if st == cache.Modified && r.Bool(0.5) {
					d.MoveToRAC(line, node)
				} else if st == cache.Modified {
					d.MoveToL2(line, node)
				}
			}
			// Invariants.
			for _, l := range lines {
				owner, _ := d.OwnerOf(l)
				modified := -1
				for n := 0; n < nodes; n++ {
					ns := p.of(l)[n]
					if ns == cache.Modified || ns == cache.Exclusive {
						if modified >= 0 {
							return false // two exclusive holders
						}
						modified = n
					}
					if ns != cache.Invalid && !d.IsSharer(l, n) {
						return false // cache holds line directory forgot
					}
				}
				if modified >= 0 && owner != modified {
					return false // exclusive holder unknown to directory
				}
				if owner >= 0 && !d.IsSharer(l, owner) {
					return false // owner not in sharer vector
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWideMachineCrossesWordBoundary drives a 128-node directory so sharer
// bookkeeping exercises both words of the sharer set: every node reads one
// line (127 sharers past the first word), then one write must invalidate all
// 127 other copies, and a snapshot of the wide state must round-trip.
func TestWideMachineCrossesWordBoundary(t *testing.T) {
	d, p := setup(MaxNodes)
	line := uint64(64) // home = node 1

	apply(p, line, 0, d.Read(line, 0)) // exclusive grant
	for n := 1; n < MaxNodes; n++ {
		res := d.Read(line, n)
		apply(p, line, n, res)
		if res.Grant != cache.Shared {
			t.Fatalf("node %d read grant = %v, want Shared", n, res.Grant)
		}
	}
	if got := d.SharerCount(line); got != MaxNodes {
		t.Fatalf("SharerCount = %d, want %d", got, MaxNodes)
	}
	for _, n := range []int{0, 63, 64, MaxNodes - 1} {
		if !d.IsSharer(line, n) {
			t.Fatalf("node %d not recorded as sharer", n)
		}
	}

	// Snapshot round-trip with bits set in the high sharer word.
	w := snapshot.NewWriter()
	d.SaveState(w.Section("directory"))
	var buf bytes.Buffer
	if err := w.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := r.Section("directory")
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := setup(MaxNodes)
	if err := d2.LoadState(dec); err != nil {
		t.Fatal(err)
	}
	if got := d2.SharerCount(line); got != MaxNodes {
		t.Fatalf("restored SharerCount = %d, want %d", got, MaxNodes)
	}
	if !d2.IsSharer(line, MaxNodes-1) {
		t.Fatal("restored directory lost the high-word sharer bit")
	}

	res := d.Write(line, MaxNodes-1)
	apply(p, line, MaxNodes-1, res)
	if res.Invalidations != MaxNodes-1 {
		t.Fatalf("write invalidations = %d, want %d", res.Invalidations, MaxNodes-1)
	}
	if !res.Upgrade {
		t.Fatal("writer held a shared copy; expected an upgrade")
	}
	if owner, dirty := d.OwnerOf(line); owner != MaxNodes-1 || !dirty {
		t.Fatalf("owner = %d dirty %v after wide write", owner, dirty)
	}
	if got := d.SharerCount(line); got != 1 {
		t.Fatalf("SharerCount after write = %d, want 1", got)
	}
}

// TestLoadRefusesHugeTable: the 16-byte header a version-1 snapshot used
// to ask for a table of 2^44 slots is refused before anything is
// allocated; the saved layout no longer carries a table size, and the live
// count it is read as cannot be backed by the input.
func TestLoadRefusesHugeTable(t *testing.T) {
	w := snapshot.NewWriter()
	e := w.Section("directory")
	e.Int(1 << 44)
	e.Int(0)
	var buf bytes.Buffer
	if err := w.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := r.Section("directory")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := setup(8)
	if err := d.LoadState(dec); err == nil {
		t.Fatal("loaded a directory claiming 2^44 entries from 16 bytes")
	}
}
