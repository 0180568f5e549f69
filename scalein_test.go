package seep_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"seep"
)

// sumCounts totals per-key counts across every live count partition.
func sumCounts(t *testing.T, job seep.Job) map[string]int64 {
	t.Helper()
	totals := make(map[string]int64, 10)
	for _, inst := range job.Instances("count") {
		c, ok := job.OperatorOf(inst).(*seep.WordCounter)
		if !ok {
			t.Fatalf("OperatorOf(%v) = %T", inst, job.OperatorOf(inst))
		}
		for i := 0; i < 10; i++ {
			w := fmt.Sprintf("w%02d", i)
			totals[w] += c.Count(w)
		}
	}
	return totals
}

// TestRuntimeParityGrowThenShrink runs one identical grow-then-shrink
// scenario — inject, split the counter in two, inject through both
// halves, merge them back, inject again — on all THREE substrates
// through the shared Runtime/Job interface, and asserts exact per-key
// counts (every tuple reflected exactly once across the split AND the
// merge), a parallelism that returns to one, and a recorded merge.
func TestRuntimeParityGrowThenShrink(t *testing.T) {
	runtimes := []struct {
		name string
		rt   seep.Runtime
	}{
		{"live", seep.Live(
			seep.WithCheckpointInterval(100 * time.Millisecond),
		)},
		{"sim", seep.Simulated(
			seep.WithSeed(42),
			seep.WithCheckpointInterval(500*time.Millisecond),
			// The grow consumes two pooled VMs and the shrink a third;
			// raw provisioning would cost 90 virtual seconds each.
			seep.WithVMPool(seep.PoolConfig{Size: 4}),
		)},
		{"dist", seep.Distributed(
			seep.WithWorkers(3),
			seep.WithCheckpointInterval(100*time.Millisecond),
		)},
	}

	results := make(map[string]map[string]int64)
	books := make(map[string][]seep.RecoveryRecord)
	for _, r := range runtimes {
		t.Run(r.name, func(t *testing.T) {
			job, err := r.rt.Deploy(wordcountTopology())
			if err != nil {
				t.Fatal(err)
			}
			job.Start()
			defer job.Stop()

			// Phase 1: single counter.
			if err := job.InjectBatch("src", 300, parityGen); err != nil {
				t.Fatal(err)
			}
			job.Run(2 * time.Second)

			// Grow.
			if err := job.ScaleOut(job.Instances("count")[0], 2); err != nil {
				t.Fatal(err)
			}
			// Long spans cost nothing where they are not needed: virtual
			// on sim (the VM pool provisions in virtual time), early
			// return on quiesce on live/dist.
			job.Run(10 * time.Second)
			if err := job.InjectBatch("src", 300, parityGen); err != nil {
				t.Fatal(err)
			}
			job.Run(2 * time.Second)

			// Shrink: merge the two partitions back.
			siblings := job.Instances("count")
			if len(siblings) != 2 {
				t.Fatalf("Instances(count) before merge = %v, want 2", siblings)
			}
			if err := job.ScaleIn(siblings); err != nil {
				t.Fatal(err)
			}
			job.Run(10 * time.Second)
			if got := job.Instances("count"); len(got) != 1 {
				t.Fatalf("Instances(count) after merge = %v, want 1", got)
			}

			// Phase 3: the merged counter keeps counting.
			if err := job.InjectBatch("src", 300, parityGen); err != nil {
				t.Fatal(err)
			}
			job.Run(2 * time.Second)

			totals := sumCounts(t, job)
			for w, n := range totals {
				if n != 90 {
					t.Errorf("count[%s] = %d, want 90 (exactly once across grow+shrink)", w, n)
				}
			}
			m := job.MetricsSnapshot()
			if m.Merges != 1 {
				t.Errorf("Metrics.Merges = %d, want 1", m.Merges)
			}
			if m.Parallelism["count"] != 1 {
				t.Errorf("Parallelism[count] = %d, want 1", m.Parallelism["count"])
			}
			var mergeRecs int
			for _, rec := range m.Recoveries {
				if rec.Merge {
					mergeRecs++
					if rec.Pi != 1 || rec.Failure {
						t.Errorf("merge record = %+v", rec)
					}
				}
			}
			if mergeRecs != 1 {
				t.Errorf("merge records in Recoveries = %d, want 1", mergeRecs)
			}
			if len(m.Errors) != 0 {
				t.Errorf("Errors = %v", m.Errors)
			}
			results[r.name] = totals
			books[r.name] = recordContent(m.Recoveries)
		})
	}

	live, sim, dst := results["live"], results["sim"], results["dist"]
	if live == nil || sim == nil || dst == nil {
		t.Fatal("missing results from one runtime")
	}
	if !reflect.DeepEqual(live, sim) || !reflect.DeepEqual(live, dst) {
		t.Errorf("behavioural divergence: live %v, sim %v, dist %v", live, sim, dst)
	}
	// One query manager keeps the books on every substrate: the same
	// transitions leave the same records, clocks and replay sizes aside.
	if !reflect.DeepEqual(books["live"], books["sim"]) || !reflect.DeepEqual(books["live"], books["dist"]) {
		t.Errorf("records diverge: live %+v, sim %+v, dist %+v", books["live"], books["sim"], books["dist"])
	}
}

// recordContent strips what legitimately differs between substrates —
// the clock a record was stamped on and how many tuples happened to be
// in flight — leaving which transition ran on what.
func recordContent(recs []seep.RecoveryRecord) []seep.RecoveryRecord {
	out := make([]seep.RecoveryRecord, len(recs))
	for i, r := range recs {
		out[i] = seep.RecoveryRecord{Victim: r.Victim, Pi: r.Pi, Failure: r.Failure, Merge: r.Merge}
	}
	return out
}

// TestDistributedMidShrinkWorkerKill races a worker kill against the
// shrink: ScaleIn runs concurrently with Job.Fail on one of the merge
// victims, which crash-stops the whole worker VM hosting it. Whatever
// stage the kill lands in — before the victims retire, between retire
// and plan, or racing the deploy — the coordinator must fall back to
// the normal recovery path and the totals must stay exact.
func TestDistributedMidShrinkWorkerKill(t *testing.T) {
	job, err := seep.Distributed(
		seep.WithWorkers(3),
		seep.WithCheckpointInterval(100*time.Millisecond),
		seep.WithDetectDelay(200*time.Millisecond),
	).Deploy(wordcountTopology())
	if err != nil {
		t.Fatal(err)
	}
	job.Start()
	defer job.Stop()

	if err := job.InjectBatch("src", 300, parityGen); err != nil {
		t.Fatal(err)
	}
	job.Run(2 * time.Second)
	if err := job.ScaleOut(job.Instances("count")[0], 2); err != nil {
		t.Fatal(err)
	}
	job.Run(2 * time.Second)
	if err := job.InjectBatch("src", 300, parityGen); err != nil {
		t.Fatal(err)
	}
	job.Run(2 * time.Second)

	siblings := job.Instances("count")
	if len(siblings) != 2 {
		t.Fatalf("Instances(count) = %v, want 2", siblings)
	}
	// Shrink and kill concurrently. The kill may land at any merge
	// stage; Fail may also error if the merge already retired the victim
	// — both interleavings are valid, exactness is not negotiable.
	scaleInDone := make(chan error, 1)
	go func() { scaleInDone <- job.ScaleIn(siblings) }()
	_ = job.Fail(siblings[1])
	<-scaleInDone
	job.Run(4 * time.Second)

	if err := job.InjectBatch("src", 300, parityGen); err != nil {
		t.Fatal(err)
	}
	job.Run(2 * time.Second)

	totals := sumCounts(t, job)
	for w, n := range totals {
		if n != 90 {
			t.Errorf("count[%s] = %d, want 90 (exactly once across a mid-shrink worker kill)", w, n)
		}
	}
}

// TestScaleInOptionAcceptedEverywhere: WithScaleIn deploys on all three
// substrates.
func TestScaleInOptionAcceptedEverywhere(t *testing.T) {
	opts := func() []seep.Option {
		return []seep.Option{
			seep.WithPolicy(seep.DefaultPolicy()),
			seep.WithScaleIn(seep.DefaultScaleInPolicy()),
		}
	}
	if job, err := seep.Live(opts()...).Deploy(wordcountTopology()); err != nil {
		t.Errorf("Live rejected WithScaleIn: %v", err)
	} else {
		job.Start()
		job.Stop()
	}
	if _, err := seep.Simulated(append(opts(), seep.WithSeed(1))...).Deploy(wordcountTopology()); err != nil {
		t.Errorf("Simulated rejected WithScaleIn: %v", err)
	}
	if job, err := seep.Distributed(append(opts(), seep.WithWorkers(2))...).Deploy(wordcountTopology()); err != nil {
		t.Errorf("Distributed rejected WithScaleIn: %v", err)
	} else {
		job.Start()
		job.Stop()
	}
}

// TestScaleInOptionValidation: scale in needs the policy's reports, and
// the low watermark must leave a hysteresis band below the scale-out
// threshold.
func TestScaleInOptionValidation(t *testing.T) {
	if _, err := seep.Live(seep.WithScaleIn(seep.DefaultScaleInPolicy())).Deploy(wordcountTopology()); err == nil {
		t.Error("WithScaleIn without WithPolicy accepted")
	}
	// 2*0.40 >= 0.70: a merged pair would land above the threshold and
	// immediately re-split.
	osc := seep.ScaleInPolicy{LowWatermark: 0.40, ConsecutiveReports: 2}
	if _, err := seep.Live(seep.WithPolicy(seep.DefaultPolicy()), seep.WithScaleIn(osc)).Deploy(wordcountTopology()); err == nil {
		t.Error("oscillating watermark combination accepted")
	} else if !strings.Contains(err.Error(), "hysteresis") {
		t.Errorf("oscillation rejection does not explain hysteresis: %v", err)
	}
}

// TestOptionErrorsNameOptionAndSubstrates: a substrate rejecting an
// option must name BOTH the offending option and every substrate that
// does accept it.
func TestOptionErrorsNameOptionAndSubstrates(t *testing.T) {
	cases := []struct {
		deploy  func() error
		wantAll []string
	}{
		{
			deploy: func() error {
				_, err := seep.Live(seep.WithFTMode(seep.FTUpstreamBackup)).Deploy(wordcountTopology())
				return err
			},
			wantAll: []string{"WithFTMode", "Simulated"},
		},
		{
			// WithQueueBound applies to Live AND Distributed (workers run
			// live engines).
			deploy: func() error {
				_, err := seep.Simulated(seep.WithQueueBound(64)).Deploy(wordcountTopology())
				return err
			},
			wantAll: []string{"WithQueueBound", "Live", "Distributed"},
		},
		{
			deploy: func() error {
				_, err := seep.Live(seep.WithWorkers(2)).Deploy(wordcountTopology())
				return err
			},
			wantAll: []string{"WithWorkers", "Distributed"},
		},
		{
			deploy: func() error {
				_, err := seep.Distributed(seep.WithFTMode(seep.FTNone), seep.WithVMPool(seep.PoolConfig{Size: 2})).Deploy(wordcountTopology())
				return err
			},
			wantAll: []string{"WithFTMode", "WithVMPool", "Simulated"},
		},
	}
	for i, c := range cases {
		err := c.deploy()
		if err == nil {
			t.Errorf("case %d: deploy accepted a foreign option", i)
			continue
		}
		for _, want := range c.wantAll {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("case %d: error %q does not name %q", i, err, want)
			}
		}
	}
}
