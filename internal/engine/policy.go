package engine

import (
	"time"

	"seep/internal/control"
	"seep/internal/plan"
)

// UtilReports estimates, for the scaling policy, the load in [0, 1] of
// every hosted instance that is neither source nor sink. The live engine
// cannot read simulated CPU budgets, so the signal is backpressure: a
// queue that stays near capacity means the operator cannot keep up with
// its input — the live equivalent of the paper's CPU utilisation reports
// crossing δ. The fill is measured in batch slots: the batches queued on
// the input channel plus the one the node goroutine has in hand, over
// the slots a full input holds.
func (e *Engine) UtilReports() []control.Report {
	var reports []control.Report
	slots := float64(e.cfg.slots())
	for _, n := range e.set.Load().stateful {
		if n.failed.Load() {
			continue
		}
		reports = append(reports, control.Report{Inst: n.inst, Util: float64(n.held()) / slots})
	}
	return reports
}

// EnablePolicy starts the scaling policy loop: every
// policy.ReportEveryMillis one control.Scaler round over UtilReports
// decides which bottlenecks split in two (Algorithm 3 via ScaleOut) and —
// when scaleIn is set — which adjacent pair of idle partitions merges.
// The low watermark must sit well below half the scale-out threshold so a
// merge cannot immediately re-trigger a split (the hysteresis band;
// enforced at the options layer). Call before Start.
func (e *Engine) EnablePolicy(policy control.Policy, scaleIn *control.ScaleInPolicy) {
	e.scaler = control.NewScaler(policy, scaleIn)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		tick := time.NewTicker(time.Duration(policy.ReportEveryMillis) * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-e.stopAll:
				return
			case <-tick.C:
				e.policyRound()
			}
		}
	}()
}

// policyRound executes one round's decisions on the policy goroutine. A
// scale out that fails, or that the manager refuses, unmutes its victim
// (core.Sequencer); one refused because the victim failed or was
// replaced meanwhile needs nothing: the transition that replaces it
// forgets it.
func (e *Engine) policyRound() {
	set := e.set.Load()
	splits, merges := e.scaler.Round(e.UtilReports(), control.View{
		Room:    e.mgr.Room,
		Routing: e.mgr.Routing,
		Live: func(inst plan.InstanceID) bool {
			n := set.byInst[inst]
			return n != nil && !n.failed.Load()
		},
	})
	for _, victim := range splits {
		_ = e.ScaleOut(victim, 2)
	}
	for _, pair := range merges {
		_ = e.MergeInstances(pair)
	}
}
