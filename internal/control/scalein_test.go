package control

import (
	"testing"

	"seep/internal/plan"
)

func reports(op string, utils ...float64) []Report {
	out := make([]Report, len(utils))
	for i, u := range utils {
		out[i] = Report{Inst: inst(op, i+1), Util: u}
	}
	return out
}

func TestScaleInAllPartitionsMustBeIdle(t *testing.T) {
	d := NewScaleInDetector(ScaleInPolicy{LowWatermark: 0.25, ConsecutiveReports: 1})
	// One hot partition blocks the merge.
	if got := d.Observe(reports("count", 0.1, 0.6)); len(got) != 0 {
		t.Errorf("merged with a hot sibling: %v", got)
	}
	if got := d.Observe(reports("count", 0.1, 0.2)); len(got) != 1 || got[0] != plan.OpID("count") {
		t.Errorf("idle operator not proposed: %v", got)
	}
}

func TestScaleInConsecutiveRounds(t *testing.T) {
	d := NewScaleInDetector(ScaleInPolicy{LowWatermark: 0.25, ConsecutiveReports: 3})
	idle := reports("count", 0.1, 0.1)
	if got := d.Observe(idle); len(got) != 0 {
		t.Fatal("fired after 1 round")
	}
	// A busy round resets the streak.
	d.Observe(reports("count", 0.1, 0.5))
	d.Observe(idle)
	d.Observe(idle)
	if got := d.Observe(idle); len(got) != 1 {
		t.Errorf("did not fire after 3 consecutive idle rounds: %v", got)
	}
}

func TestScaleInRespectsMinPartitions(t *testing.T) {
	d := NewScaleInDetector(ScaleInPolicy{LowWatermark: 0.25, ConsecutiveReports: 1, MinPartitions: 2})
	if got := d.Observe(reports("count", 0.0, 0.0)); len(got) != 0 {
		t.Errorf("merged below MinPartitions: %v", got)
	}
	d2 := NewScaleInDetector(ScaleInPolicy{LowWatermark: 0.25, ConsecutiveReports: 1})
	if got := d2.Observe(reports("count", 0.0)); len(got) != 0 {
		t.Errorf("single partition proposed for merge: %v", got)
	}
}

// TestPolicyHysteresisNoOscillation models the closed loop the two
// detectors form with the runtime — scale out halves per-partition
// load, scale in sums it — and proves that at ANY steady load the
// default watermarks (low = 0.25, δ = 0.70, with 2·low < δ) settle
// after at most one action instead of oscillating.
func TestPolicyHysteresisNoOscillation(t *testing.T) {
	for _, load := range []float64{0.10, 0.24, 0.26, 0.49, 0.51, 0.69, 0.71, 0.95, 1.4} {
		out := NewDetector(Policy{Threshold: 0.70, ConsecutiveReports: 2})
		in := NewScaleInDetector(ScaleInPolicy{LowWatermark: 0.25, ConsecutiveReports: 2})

		// The operator starts as one partition carrying `load`; the
		// loop redistributes it evenly across the current partitions.
		parts := []plan.InstanceID{inst("op", 1)}
		nextPart := 2
		actions := 0
		lastActionRound := 0
		for round := 1; round <= 50; round++ {
			reports := make([]Report, len(parts))
			for i, p := range parts {
				reports[i] = Report{Inst: p, Util: load / float64(len(parts))}
			}
			for _, victim := range out.Observe(reports) {
				// Scale out: the victim splits in two fresh instances.
				actions++
				lastActionRound = round
				var kept []plan.InstanceID
				for _, p := range parts {
					if p != victim {
						kept = append(kept, p)
					}
				}
				kept = append(kept, inst("op", nextPart), inst("op", nextPart+1))
				nextPart += 2
				parts = kept
				out.Forget(victim)
			}
			for range in.Observe(reports) {
				// Scale in: two partitions merge into one fresh instance.
				if len(parts) < 2 {
					continue
				}
				actions++
				lastActionRound = round
				parts = append(parts[:len(parts)-2], inst("op", nextPart))
				nextPart++
			}
		}
		if actions > 1 {
			t.Errorf("load %.2f: %d scaling actions, want at most 1 (oscillation)", load, actions)
		}
		if actions == 1 && lastActionRound > 10 {
			t.Errorf("load %.2f: action fired late (round %d) — streak logic broken", load, lastActionRound)
		}
	}
}

// TestHysteresisGapIsLoadBearing shows why the options layer enforces
// 2·low < δ: with the gap violated (low = 0.40 against δ = 0.70), a
// steady load between δ and 2·low oscillates out/in forever.
func TestHysteresisGapIsLoadBearing(t *testing.T) {
	load := 0.75 // above δ=0.70 as one partition; 0.375 < 0.40 as two
	out := NewDetector(Policy{Threshold: 0.70, ConsecutiveReports: 1})
	in := NewScaleInDetector(ScaleInPolicy{LowWatermark: 0.40, ConsecutiveReports: 1})
	parts := []plan.InstanceID{inst("op", 1)}
	nextPart := 2
	actions := 0
	for round := 0; round < 20; round++ {
		reports := make([]Report, len(parts))
		for i, p := range parts {
			reports[i] = Report{Inst: p, Util: load / float64(len(parts))}
		}
		for _, victim := range out.Observe(reports) {
			actions++
			parts = []plan.InstanceID{inst("op", nextPart), inst("op", nextPart+1)}
			nextPart += 2
			out.Forget(victim)
		}
		for range in.Observe(reports) {
			if len(parts) < 2 {
				continue
			}
			actions++
			parts = []plan.InstanceID{inst("op", nextPart)}
			nextPart++
		}
	}
	if actions < 10 {
		t.Errorf("expected a violated hysteresis gap to oscillate (got %d actions); if this stopped oscillating, the guard in the options layer may be removable", actions)
	}
}

func TestDefaultScaleInPolicy(t *testing.T) {
	p := DefaultScaleInPolicy()
	if p.LowWatermark >= DefaultPolicy().Threshold/2 {
		t.Errorf("low watermark %v must sit below δ/2 to avoid flapping", p.LowWatermark)
	}
}
