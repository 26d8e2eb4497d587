// Package tpcb implements a functional miniature OLTP database engine that
// executes TPC-B transactions (paper Section 2.1) while emitting the memory
// references the execution would perform, into a simulated address space.
//
// The engine stands in for Oracle 7.3.2: it has a block buffer cache with
// hash lookup and LRU replacement, buffer-header pins, cache-buffers-chains
// latches, a circular redo log buffer with a redo-allocation latch and group
// commit, undo (rollback) segments, and log-writer / database-writer daemon
// operations. Those are exactly the structures whose sharing behaviour
// produces the communication misses the paper measures: buffer headers and
// branch/teller rows migrate between processors (3-hop misses), the redo
// allocation latch is a migratory hot line, the log writer pulls every redo
// line from the cache that wrote it, and the enormous mostly-cold account
// table supplies the capacity/cold miss tail.
//
// The engine is genuinely functional — balances update and the TPC-B
// consistency conditions hold — so tests can assert correctness, and the
// reference stream is produced by real executions rather than a synthetic
// statistical model.
package tpcb

import "fmt"

// The fixed geometry of the paper's database and engine. The paper runs one
// workload shape (TPC-B under Oracle 7.3.2, Section 2.1), so these never
// vary between the database scales below.
const (
	// TellersPerBranch is 10 per the TPC-B specification.
	TellersPerBranch = 10
	// BlockBytes is the database block size (8 KB, Oracle's typical size
	// and the Alpha page size).
	BlockBytes = 8192
	// AccountsPerBlock packs ~100-byte account rows 80 to an 8 KB block.
	AccountsPerBlock = 80
	// TellersPerBlock packs teller rows 20 to a block.
	TellersPerBlock = 20
	// BranchesPerBlock is 1: the classic TPC-B tuning that gives each
	// branch row a private block to reduce (but not eliminate) contention.
	BranchesPerBlock = 1
	// LogBufferBytes is the circular redo log buffer size.
	LogBufferBytes = 384 << 10
	// RedoPerUpdate is the redo payload bytes generated per row update.
	RedoPerUpdate = 144
	// UndoBlocksPerSegment is the recycled window of blocks per rollback
	// segment.
	UndoBlocksPerSegment = 4
	// HistoryInsertSlots is the number of free-list insert points for the
	// history table; concurrent inserters rotate among them.
	HistoryInsertSlots = 4
	// CursorHotLines is the per-statement hot cursor footprint in lines.
	CursorHotLines = 24
	// PGABytes is the per-process private memory (session heap, redo
	// scratch, sort area slices).
	PGABytes = 1 << 20
)

// Config sizes the database and its engine structures: the values that
// differ between the paper-scale, quick and unit-test databases. Defaults
// reproduce the paper's setup: a TPC-B database with 40 branches and an SGA
// over 900 MB of which >100 MB is metadata.
type Config struct {
	// Branches is the TPC-B scale factor (paper: 40).
	Branches int
	// AccountsPerBranch is 100,000 per the TPC-B specification.
	AccountsPerBranch int

	// BufferFrames is the number of block buffers in the SGA block buffer
	// area. The default gives ~790 MB of cached blocks, comfortably holding
	// the whole database, matching the paper's steady state where block
	// reads rarely go to disk.
	BufferFrames int
	// HashBuckets is the number of cache-buffers-chains hash buckets.
	HashBuckets int
	// CBCLatches is the number of cache-buffers-chains latches protecting
	// those buckets.
	CBCLatches int

	// UndoSegments is the number of rollback segments; sessions are assigned
	// round-robin, so concurrent transactions write different undo blocks.
	UndoSegments int

	// HistoryWindowBlocks is the recycled window of history blocks (the
	// simulated steady state where old history has been checkpointed out).
	HistoryWindowBlocks int

	// SharedPoolBytes sizes the library-cache / cursor region of the SGA
	// metadata area; executions read skewed portions of it.
	SharedPoolBytes int
}

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		Branches:            40,
		AccountsPerBranch:   100_000,
		BufferFrames:        101_000,
		HashBuckets:         8192,
		CBCLatches:          512,
		UndoSegments:        8,
		HistoryWindowBlocks: 1024,
		SharedPoolBytes:     96 << 20,
	}
}

// QuickConfig returns the scaled-down database of quick runs (oltpsim
// -quick, figures -quick, and quick server jobs): a fifth of the accounts,
// a buffer pool sized to hold them, and a third of the shared pool.
func QuickConfig() Config {
	c := DefaultConfig()
	c.AccountsPerBranch = 20_000
	c.BufferFrames = 22_000
	c.SharedPoolBytes = 32 << 20
	return c
}

// SmallConfig returns a scaled-down database for fast unit tests. The engine
// logic is identical; only the table sizes shrink.
func SmallConfig() Config {
	c := DefaultConfig()
	c.Branches = 4
	c.AccountsPerBranch = 1000
	c.BufferFrames = 2048
	c.HashBuckets = 512
	c.CBCLatches = 32
	c.UndoSegments = 4
	c.HistoryWindowBlocks = 64
	c.SharedPoolBytes = 4 << 20
	return c
}

// poolTheta is the skew of the shared-pool tail reads.
const poolTheta = 0.93

// poolZetaSum returns the Zipf sum sim.Zeta(lines, poolTheta) of the
// shared pool of each scale above. Summing it costs one math.Pow per line,
// most of a paper-scale engine's construction, for a value that never
// changes. ok is false for any other pool size, whose sum the engine
// computes. TestPoolZetaSums pins each constant to sim.Zeta bit for bit.
func poolZetaSum(lines int) (sum float64, ok bool) {
	switch lines {
	case 1_572_864: // DefaultConfig: 96 MB of 64-byte lines
		return 25.07196613538836, true
	case 524_288: // QuickConfig: 32 MB
		return 22.201050889404414, true
	case 65_536: // SmallConfig: 4 MB
		return 17.3359647313251, true
	}
	return 0, false
}

// Tellers returns the total teller count.
func (c Config) Tellers() int { return c.Branches * TellersPerBranch }

// Accounts returns the total account count.
func (c Config) Accounts() int { return c.Branches * c.AccountsPerBranch }

// BranchBlocks returns the number of blocks holding branch rows.
func (c Config) BranchBlocks() int {
	return (c.Branches + BranchesPerBlock - 1) / BranchesPerBlock
}

// TellerBlocks returns the number of blocks holding teller rows.
func (c Config) TellerBlocks() int {
	return (c.Tellers() + TellersPerBlock - 1) / TellersPerBlock
}

// AccountBlocks returns the number of blocks holding account rows.
func (c Config) AccountBlocks() int {
	return (c.Accounts() + AccountsPerBlock - 1) / AccountsPerBlock
}

// UndoBlocks returns the total undo block count.
func (c Config) UndoBlocks() int { return c.UndoSegments * UndoBlocksPerSegment }

// TotalBlocks returns the number of distinct database blocks the engine can
// reference (branch + teller + account + history window + undo).
func (c Config) TotalBlocks() int {
	return c.BranchBlocks() + c.TellerBlocks() + c.AccountBlocks() +
		c.HistoryWindowBlocks + c.UndoBlocks()
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Branches <= 0:
		return fmt.Errorf("tpcb: Branches must be positive, got %d", c.Branches)
	case c.AccountsPerBranch <= 0:
		return fmt.Errorf("tpcb: AccountsPerBranch must be positive, got %d", c.AccountsPerBranch)
	case c.BufferFrames < c.TotalBlocks():
		return fmt.Errorf("tpcb: BufferFrames %d cannot hold the %d database blocks (the paper's SGA holds the whole database in steady state)",
			c.BufferFrames, c.TotalBlocks())
	case c.HashBuckets <= 0 || c.CBCLatches <= 0:
		return fmt.Errorf("tpcb: hash buckets and latches must be positive")
	case c.UndoSegments <= 0:
		return fmt.Errorf("tpcb: UndoSegments must be positive, got %d", c.UndoSegments)
	case c.HistoryWindowBlocks < HistoryInsertSlots:
		return fmt.Errorf("tpcb: history window must cover the insert slots")
	}
	return nil
}
