package tpcb

import (
	"oltpsim/internal/memref"
	"oltpsim/internal/sim"
)

// This file holds the engine entry points used by time-varying scenario
// runs (internal/scenario): shaped input selection plus the read-only and
// scan transaction bodies. Default steady-state runs never reach the read
// and scan paths, and DrawTxnShaped with a nil Zipf and a full working set
// consumes exactly DrawTxn's RNG stream, so a single-phase pure-update
// profile is byte-identical to today's steady state.

// DrawTxnShaped picks a transaction input under scenario shaping:
// branchZipf, when non-nil, skews the teller/branch choice toward hot
// branches (branch first, then a uniform teller within it); workingSet
// scales the active account range per branch to its first
// ceil(workingSet*AccountsPerBranch) accounts. branchZipf == nil with
// workingSet >= 1 consumes the identical RNG draw sequence as DrawTxn —
// the degenerate-profile identity tests pin this.
func (e *Engine) DrawTxnShaped(r *sim.RNG, branchZipf *sim.Zipf, workingSet float64) TxnInput {
	var teller, branch int
	if branchZipf != nil {
		branch = branchZipf.Next(r)
		teller = branch*TellersPerBranch + r.Intn(TellersPerBranch)
	} else {
		teller = r.Intn(e.cfg.Tellers())
		branch = teller / TellersPerBranch
	}
	active := e.cfg.AccountsPerBranch
	if workingSet < 1 {
		active = int(workingSet * float64(e.cfg.AccountsPerBranch))
		if active < 1 {
			active = 1
		}
	}
	acctBranch := branch
	if e.cfg.Branches > 1 && r.Float64() < 0.15 {
		acctBranch = r.Intn(e.cfg.Branches - 1)
		if acctBranch >= branch {
			acctBranch++
		}
	}
	acct := acctBranch*e.cfg.AccountsPerBranch + r.Intn(active)
	delta := int64(r.Intn(1_999_999)) - 999_999 // [-999999, +999999] per spec
	return TxnInput{Teller: teller, Branch: branch, Acct: acct, Delta: delta}
}

// ExecReadTxn runs the read-only variant of the TPC-B transaction: the same
// cursor executions, index walk, and three row lookups, but no mutation —
// no undo, no redo, no history insert, and no commit record, so the session
// has nothing to wait on and the balance/history invariants are untouched.
func (e *Engine) ExecReadTxn(sess *Session, in TxnInput) {
	sess.pinned = sess.pinned[:0]

	e.em.Code(e.code.SQLPrep)
	e.touchSharedPoolTail()
	e.em.Store(sess.PGABase, false)

	// SELECT balance FROM account WHERE id = :acct
	e.execCursor(stmtUpdateAccount)
	e.indexLookup(in.Acct)
	e.readRow(sess, e.accountBlock(in.Acct), in.Acct%AccountsPerBlock, 96)

	// SELECT from teller and branch (dictionary-resolved blocks).
	e.execCursor(stmtUpdateTeller)
	e.em.Load(e.dictAddr(in.Teller%32), false)
	e.readRow(sess, e.tellerBlock(in.Teller), in.Teller%TellersPerBlock, 128)

	e.execCursor(stmtUpdateBranch)
	e.em.Load(e.dictAddr(32+in.Branch%16), false)
	e.readRow(sess, e.branchBlock(in.Branch), in.Branch%BranchesPerBlock, 128)

	e.em.Code(e.code.TxnCommit)
}

// readRow pins the block and reads the row. The row-access driver is the
// same server code as an update (RowUpdate), minus the mutation stores and
// header stamp.
func (e *Engine) readRow(sess *Session, block int32, slot, rowBytes int) {
	f, _ := e.pool.Get(block)
	sess.pinned = append(sess.pinned, f)
	e.em.Code(e.code.RowUpdate)
	e.em.Load(e.rowAddr(block, slot, rowBytes), true)
}

// scanRowLines is how many row lines one scanned block touches: predicate
// evaluation reads a strided sample of the block's rows.
const scanRowLines = 16

// ExecScan runs a DSS-style sequential scan: blocks account blocks from the
// session's persistent scan cursor (wrapping over the account table), each
// pinned, row-sampled with scanRowLines strided loads, and unpinned
// immediately — the no-reuse streaming pattern that flushes capacity out of
// small caches. A scan stores nothing to the blocks it reads; the
// scan-only profile examples/scenarios/dss.json is the paper's
// decision-support contrast.
func (e *Engine) ExecScan(sess *Session, blocks int) {
	sess.pinned = sess.pinned[:0]

	e.em.Code(e.code.SQLPrep)
	e.touchSharedPoolTail()
	e.em.Store(sess.PGABase, false)
	e.em.Code(e.code.SQLExec)

	nblocks := int32(e.cfg.AccountBlocks())
	lines := BlockBytes / memref.LineBytes
	stride := (lines - 1) / scanRowLines
	if stride < 1 {
		stride = 1
	}
	for b := 0; b < blocks; b++ {
		if sess.scanBlock >= nblocks {
			sess.scanBlock = 0
		}
		block := e.accountBlock0 + sess.scanBlock
		sess.scanBlock++
		f, _ := e.pool.Get(block)
		for l := 0; l < scanRowLines && 1+l*stride < lines; l++ {
			e.em.Load(e.pool.BlockAddr(block, (1+l*stride)*memref.LineBytes), false)
		}
		e.pool.Unpin(f)
	}
	e.em.Code(e.code.TxnCommit)
}
