package oltp

import (
	"oltpsim/internal/kernel"
	"oltpsim/internal/scenario"
	"oltpsim/internal/sim"
	"oltpsim/internal/tpcb"
)

// Transaction kinds a scenario phase can mix.
const (
	txnKindUpdate = iota
	txnKindRead
	txnKindScan
)

// scenarioCtl is the harness's compiled view of a scenario schedule: the
// schedule itself, the committed-transaction position its phase clock
// starts from, and one pre-built branch-Zipf sampler per skewed phase.
// Everything here is derived from Params at construction — the samplers
// are stateless and the schedule immutable — so scenario runs add no
// snapshot state to the harness. Each sampler sums its Zipf constant
// afresh: the sum has only Branches terms.
type scenarioCtl struct {
	sched *scenario.Schedule
	base  uint64
	zipf  []*sim.Zipf // per phase; nil = uniform branch selection
}

func newScenarioCtl(sched *scenario.Schedule, base uint64, cfg *tpcb.Config) *scenarioCtl {
	c := &scenarioCtl{sched: sched, base: base, zipf: make([]*sim.Zipf, sched.NumPhases())}
	for i := range c.zipf {
		if sh := sched.Shape(i); sh.Skew > 0 && cfg.Branches > 1 {
			c.zipf[i] = sim.NewZipf(cfg.Branches, sh.Skew)
		}
	}
	return c
}

// scenarioDraw picks the next transaction's kind and input for g under the
// schedule. The phase clock is the global committed-transaction counter
// relative to the scenario base, so every server switches parameters at the
// same exact commit boundary however the run is chunked: commits retire
// one per scheduler step, and the draw below happens on the step after the
// counter advanced. Inside a ramp window one
// extra uniform draw per transaction interpolates between the previous and
// incoming phase's whole parameter set; outside ramps (and in mixless
// phases) the draw sequence is exactly the steady-state one.
func (h *Harness) scenarioDraw(g *serverGen) (kind int, in tpcb.TxnInput, scanBlocks int) {
	c := h.scn
	var pos uint64
	if t := h.committed; t > c.base {
		pos = t - c.base
	}
	pt := c.sched.At(pos)
	idx := pt.Phase
	if pt.InRamp && g.rng.Float64() >= pt.RampFrac {
		idx--
	}
	sh := c.sched.Shape(idx)
	if sh.Mix.Read > 0 || sh.Mix.Scan > 0 {
		u := g.rng.Float64()
		switch {
		case u < sh.Mix.Read:
			return txnKindRead, h.eng.DrawTxnShaped(g.rng, c.zipf[idx], sh.WorkingSet), 0
		case u < sh.Mix.Read+sh.Mix.Scan:
			return txnKindScan, tpcb.TxnInput{}, sh.ScanBlocks
		}
	}
	return txnKindUpdate, h.eng.DrawTxnShaped(g.rng, c.zipf[idx], sh.WorkingSet), 0
}

// scenarioTxn is the scenario-mode transaction phase of a server process.
// Updates follow the exact steady-state sequence (body, semaphore wait,
// block on the group-commit flush). Read-only and scan transactions have no
// redo to wait on: they finish their body and proceed straight to the
// committed phase with a plain run directive that arms no drain action.
func (g *serverGen) scenarioTxn() kernel.Directive {
	kind, in, blocks := g.h.scenarioDraw(g)
	switch kind {
	case txnKindRead:
		g.h.eng.ExecReadTxn(g.sess, in)
		g.phase = serverPhaseCommitted
		return kernel.Directive{Kind: kernel.Run}
	case txnKindScan:
		g.h.eng.ExecScan(g.sess, blocks)
		g.phase = serverPhaseCommitted
		return kernel.Directive{Kind: kernel.Run}
	default:
		g.waitLSN = g.h.eng.ExecTxn(g.sess, in)
		g.h.kernelSemWait(g)
		g.phase = serverPhaseCommitted
		return kernel.Directive{Kind: kernel.Block, Drain: true}
	}
}
