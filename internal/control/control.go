// Package control implements the control plane of §5: the bottleneck
// detector and scaling policy that decide *when* to scale out, expressed
// as pure logic over utilisation reports so that both the live engine and
// the cluster simulator can drive it.
//
// The policy is the paper's: VMs submit CPU utilisation reports every r
// seconds; when k consecutive reports for an operator are above the
// threshold δ, the operator is scaled out. Empirically the paper uses
// r=5 s, k=2, δ=70%.
package control

import (
	"slices"
	"sync"

	"seep/internal/plan"
)

// Report is one CPU utilisation report for an operator instance.
type Report struct {
	Inst plan.InstanceID
	// Util is the fraction of the CPU time slice consumed (may exceed 1
	// when the instance's queue is growing).
	Util float64
}

// Policy holds the scaling policy parameters.
type Policy struct {
	// Threshold is δ, the utilisation above which a report counts toward
	// scale out (0.70 in the paper).
	Threshold float64
	// ConsecutiveReports is k, the number of consecutive above-threshold
	// reports required (2 in the paper).
	ConsecutiveReports int
	// ReportEveryMillis is r, the reporting period (5000 ms). Held here
	// for the runtime to schedule reports; the detector itself is
	// event-driven.
	ReportEveryMillis int64
}

// DefaultPolicy returns the empirically chosen parameters of §5.1.
func DefaultPolicy() Policy {
	return Policy{Threshold: 0.70, ConsecutiveReports: 2, ReportEveryMillis: 5000}
}

// Detector is the bottleneck detector: it consumes utilisation reports
// and emits the instances that crossed the policy threshold k consecutive
// times. Detector is safe for concurrent use (the live engine reports
// from node goroutines).
type Detector struct {
	mu     sync.Mutex
	policy Policy
	streak map[plan.InstanceID]int
	// muted suppresses re-triggering for instances already being scaled
	// out; the runtime unmutes (implicitly) because replacement
	// instances have fresh IDs.
	muted map[plan.InstanceID]bool
}

// NewDetector returns a detector with the given policy.
func NewDetector(p Policy) *Detector {
	if p.ConsecutiveReports <= 0 {
		p.ConsecutiveReports = 1
	}
	return &Detector{
		policy: p,
		streak: make(map[plan.InstanceID]int),
		muted:  make(map[plan.InstanceID]bool),
	}
}

// Observe ingests one round of reports and returns the instances that
// should be scaled out, in deterministic order. Instances not present in
// a round keep their streak (missing reports are not evidence of
// recovery); instances below threshold reset to zero.
func (d *Detector) Observe(reports []Report) []plan.InstanceID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []plan.InstanceID
	for _, r := range reports {
		if d.muted[r.Inst] {
			continue
		}
		if r.Util > d.policy.Threshold {
			d.streak[r.Inst]++
			if d.streak[r.Inst] >= d.policy.ConsecutiveReports {
				out = append(out, r.Inst)
				d.streak[r.Inst] = 0
				d.muted[r.Inst] = true
			}
		} else {
			d.streak[r.Inst] = 0
		}
	}
	slices.SortFunc(out, plan.InstanceID.Compare)
	return out
}

// Forget clears all detector state for an instance (when it is replaced
// or removed). Replacement instances have fresh IDs and start clean.
func (d *Detector) Forget(inst plan.InstanceID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.streak, inst)
	delete(d.muted, inst)
}

// Unmute re-enables triggering for an instance (e.g. after an aborted
// scale out).
func (d *Detector) Unmute(inst plan.InstanceID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.muted, inst)
}

// Streak returns the current consecutive-above-threshold count for an
// instance (for tests and introspection).
func (d *Detector) Streak(inst plan.InstanceID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.streak[inst]
}
