package control

import (
	"sort"

	"seep/internal/plan"
	"seep/internal/state"
)

// ScaleInPolicy decides when partitions of an operator should be merged
// back together. The paper lists scale in as future work ("we plan to
// extend our scale out policy with support for scale in to enable truly
// elastic deployments", §8); this implements the natural dual of the
// scale-out policy: when EVERY partition of an operator reports
// utilisation below a low watermark for k consecutive rounds, two of its
// partitions are merged. Requiring all partitions below the watermark
// (rather than any) prevents merging away capacity that a skewed sibling
// still needs, and the watermark must sit well below δ/2 so a merge does
// not immediately re-trigger scale out.
type ScaleInPolicy struct {
	// LowWatermark is the utilisation below which a partition counts as
	// under-used (default 0.25: a merged pair lands at ≤ 0.5 < δ=0.7).
	LowWatermark float64
	// ConsecutiveReports is k for scale in (default 3; more conservative
	// than scale out because merging under a rising load is costly).
	ConsecutiveReports int
	// MinPartitions stops merging at this parallelism (default 1).
	MinPartitions int
}

// DefaultScaleInPolicy returns conservative defaults.
func DefaultScaleInPolicy() ScaleInPolicy {
	return ScaleInPolicy{LowWatermark: 0.25, ConsecutiveReports: 3, MinPartitions: 1}
}

// ScaleInDetector tracks per-operator streaks of all-partitions-idle
// rounds and proposes merges.
type ScaleInDetector struct {
	policy ScaleInPolicy
	streak map[plan.OpID]int
}

// NewScaleInDetector returns a detector with the given policy.
func NewScaleInDetector(p ScaleInPolicy) *ScaleInDetector {
	if p.ConsecutiveReports <= 0 {
		p.ConsecutiveReports = 1
	}
	if p.MinPartitions <= 0 {
		p.MinPartitions = 1
	}
	return &ScaleInDetector{policy: p, streak: make(map[plan.OpID]int)}
}

// Observe ingests one round of reports and returns the operators whose
// partitions should shrink by one merge; a proposal restarts the
// operator's streak, so it may shrink again once its partitions have
// idled anew. The Scaler chooses WHICH pair to merge: merge victims must
// own adjacent key ranges (a routing-level constraint the detector does
// not see).
func (d *ScaleInDetector) Observe(reports []Report) []plan.OpID {
	byOp := make(map[plan.OpID][]Report)
	for _, r := range reports {
		byOp[r.Inst.Op] = append(byOp[r.Inst.Op], r)
	}
	ops := make([]plan.OpID, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })

	var out []plan.OpID
	for _, op := range ops {
		rs := byOp[op]
		if len(rs) <= d.policy.MinPartitions || len(rs) < 2 {
			d.streak[op] = 0
			continue
		}
		allIdle := true
		for _, r := range rs {
			if r.Util >= d.policy.LowWatermark {
				allIdle = false
				break
			}
		}
		if !allIdle {
			d.streak[op] = 0
			continue
		}
		d.streak[op]++
		if d.streak[op] < d.policy.ConsecutiveReports {
			continue
		}
		d.streak[op] = 0
		out = append(out, op)
	}
	return out
}

// AdjacentPair picks the pair of partitions owning adjacent key ranges
// with the lowest combined utilisation, or nil — the runtime-side merge
// victim selection shared by every substrate (merge victims must own
// adjacent ranges, a routing-level constraint the detector does not
// see). entries is the operator's routing state in range order; live
// filters candidates, since each runtime's notion of liveness differs.
func AdjacentPair(entries []state.RouteEntry, reports []Report, live func(plan.InstanceID) bool) []plan.InstanceID {
	util := make(map[plan.InstanceID]float64, len(reports))
	for _, r := range reports {
		util[r.Inst] = r.Util
	}
	var best []plan.InstanceID
	bestLoad := -1.0
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1].Target, entries[i].Target
		if a == b || !live(a) || !live(b) {
			continue
		}
		load := util[a] + util[b]
		if bestLoad < 0 || load < bestLoad {
			best = []plan.InstanceID{a, b}
			bestLoad = load
		}
	}
	return best
}
