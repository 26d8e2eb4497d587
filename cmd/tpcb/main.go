// Command tpcb runs the functional TPC-B database engine standalone — no
// timing simulation, just the engine executing transactions with its buffer
// pool, redo log, and daemons — and verifies the TPC-B consistency
// conditions at the end. It demonstrates that the workload substrate is a
// real database engine, not a statistical trace generator.
//
// Every line of output is a pure function of the flags: the report counts
// logical work (buffer gets, latch acquires, redo bytes, emitted references)
// rather than wall-clock time, so a fixed seed reproduces the run
// byte-for-byte. Throughput in real time is the timing simulator's job
// (cmd/oltpsim, cmd/figures); mixing the wall clock into this tool's output
// would break the determinism contract oltpvet enforces.
//
//	tpcb -txns 100000 -branches 40
package main

import (
	"flag"
	"fmt"
	"os"

	"oltpsim/internal/sim"
	"oltpsim/internal/tpcb"
)

func main() {
	var (
		txns     = flag.Int("txns", 100_000, "transactions to execute")
		branches = flag.Int("branches", 40, "TPC-B scale (branches)")
		accounts = flag.Int("accounts", 100_000, "accounts per branch")
		sessions = flag.Int("sessions", 8, "concurrent sessions (round-robin)")
		seed     = flag.Uint64("seed", 42, "workload seed")
		count    = flag.Bool("count", false, "count emitted memory references")
	)
	flag.Parse()

	if err := validate(*txns, *branches, *accounts, *sessions); err != nil {
		fmt.Fprintln(os.Stderr, "tpcb:", err)
		flag.Usage()
		os.Exit(2)
	}

	cfg := tpcb.DefaultConfig()
	cfg.Branches = *branches
	cfg.AccountsPerBranch = *accounts
	cfg.BufferFrames = cfg.TotalBlocks() + 1000

	var em tpcb.Emitter = tpcb.NopEmitter{}
	var counter *tpcb.CountingEmitter
	if *count {
		counter = &tpcb.CountingEmitter{}
		em = counter
	}

	eng, err := tpcb.NewEngine(cfg, &tpcb.BumpAllocator{}, em, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	eng.Prewarm()

	sess := make([]*tpcb.Session, *sessions)
	for i := range sess {
		sess[i] = eng.NewSession(i, uint64(1)<<40+uint64(i)<<24)
	}
	rng := sim.NewRNG(*seed)

	for i := 0; i < *txns; i++ {
		s := sess[i%len(sess)]
		eng.ExecTxn(s, eng.DrawTxn(rng))
		// Group commit: flush once per round of sessions.
		if i%len(sess) == len(sess)-1 {
			target, _ := eng.LogWriterGather()
			eng.LogWriterComplete(target)
			for _, s2 := range sess {
				eng.PostCommit(s2)
			}
		}
		if i%4096 == 0 {
			eng.DBWriterScan(64)
		}
	}
	target, _ := eng.LogWriterGather()
	eng.LogWriterComplete(target)
	for _, s2 := range sess {
		eng.PostCommit(s2)
	}

	fmt.Printf("executed %d TPC-B transactions (seed %d, %d sessions; functional engine only)\n",
		*txns, *seed, *sessions)
	a, tl, bsum, d := eng.Balances()
	fmt.Printf("consistency: sum(accounts)=%d sum(tellers)=%d sum(branches)=%d sum(deltas)=%d\n", a, tl, bsum, d)
	if err := eng.CheckInvariants(); err != nil {
		fmt.Fprintln(os.Stderr, "INVARIANT VIOLATION:", err)
		os.Exit(1)
	}
	fmt.Println("TPC-B consistency conditions hold.")
	fmt.Printf("history rows: %d  buffer gets: %d  latch acquires: %d  redo bytes: %d\n",
		eng.HistoryLen(), eng.Pool().Stats.Gets, eng.Latches().Acquires, eng.Log().Stats.BytesWritten)
	if *txns > 0 {
		n := float64(*txns)
		fmt.Printf("logical work per txn: %.1f buffer gets, %.1f latch acquires, %.1f redo bytes\n",
			float64(eng.Pool().Stats.Gets)/n,
			float64(eng.Latches().Acquires)/n,
			float64(eng.Log().Stats.BytesWritten)/n)
		if counter != nil {
			fmt.Printf("emitted per txn: %.0f instructions, %.1f loads, %.1f stores\n",
				float64(counter.Instrs)/n,
				float64(counter.Loads)/n,
				float64(counter.Stores)/n)
		}
	}
}

// validate rejects flag values the engine or the transaction loop would
// misinterpret.
func validate(txns, branches, accounts, sessions int) error {
	if txns < 0 {
		return fmt.Errorf("-txns must be >= 0 (got %d)", txns)
	}
	if branches < 1 {
		return fmt.Errorf("-branches must be >= 1 (got %d)", branches)
	}
	if accounts < 1 {
		return fmt.Errorf("-accounts must be >= 1 (got %d)", accounts)
	}
	if sessions < 1 {
		return fmt.Errorf("-sessions must be >= 1 (got %d)", sessions)
	}
	return nil
}
