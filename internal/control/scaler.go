package control

import (
	"seep/internal/plan"
	"seep/internal/state"
)

// View is the deployment as one scaling round sees it. Every runtime
// fills Room and Routing from its core.Manager; Live is the runtime's own
// notion of an instance it could retire right now (hosted, not failed,
// not already in a transition).
type View struct {
	// Room reports whether the operator may gain a partition.
	Room func(plan.OpID) bool
	// Routing returns the operator's routing state, whose entries give
	// the key-range adjacency of its partitions. Only consulted under a
	// scale-in policy.
	Routing func(plan.OpID) *state.Routing
	// Live filters merge candidates. Only consulted under a scale-in
	// policy.
	Live func(plan.InstanceID) bool
}

// Scaler is the scaling policy of §5.1 as the query manager runs it: the
// bottleneck detector, the max-parallelism gate, and — under a scale-in
// policy — the idle detector and the choice of which adjacent pair to
// merge. A round turns utilisation reports into decisions; the runtime
// only executes them, and tells the Scaler when one was refused (Unmute)
// or completed (Forget). A nil *Scaler is a disabled policy.
type Scaler struct {
	det      *Detector
	shrinker *ScaleInDetector
}

// NewScaler returns a Scaler for the scale-out policy p and, when in is
// non-nil, the scale-in policy.
func NewScaler(p Policy, in *ScaleInPolicy) *Scaler {
	s := &Scaler{det: NewDetector(p)}
	if in != nil {
		s.shrinker = NewScaleInDetector(*in)
	}
	return s
}

// Round ingests one round of reports and returns the transitions to run:
// each of splits is a bottleneck to scale out to two partitions, each of
// merges a pair of adjacent idle partitions to scale in. A bottleneck
// whose operator has no room is refused here, and unmuted so it can
// trigger again once siblings have merged.
func (s *Scaler) Round(reports []Report, v View) (splits []plan.InstanceID, merges [][]plan.InstanceID) {
	for _, victim := range s.det.Observe(reports) {
		if !v.Room(victim.Op) {
			s.det.Unmute(victim)
			continue
		}
		splits = append(splits, victim)
	}
	if s.shrinker == nil {
		return splits, nil
	}
	for _, op := range s.shrinker.Observe(reports) {
		if r := v.Routing(op); r != nil {
			if pair := AdjacentPair(r.Entries(), reports, v.Live); pair != nil {
				merges = append(merges, pair)
			}
		}
	}
	return splits, merges
}

// Unmute re-enables triggering for a bottleneck whose scale out the
// runtime refused or aborted.
func (s *Scaler) Unmute(victim plan.InstanceID) {
	if s != nil {
		s.det.Unmute(victim)
	}
}

// Forget drops all detector state for instances a completed transition
// superseded (core.Manager.Complete); their replacements have fresh IDs
// and start clean.
func (s *Scaler) Forget(victims []plan.InstanceID) {
	if s == nil {
		return
	}
	for _, v := range victims {
		s.det.Forget(v)
	}
}
