package dist_test

import (
	"fmt"
	"testing"
	"time"

	"seep/internal/control"
	"seep/internal/core"
	"seep/internal/dist"
	"seep/internal/plan"
)

// TestDistributedPolicyRounds scripts utilisation reports through the
// coordinator's event loop and checks every decision by its record: a hot
// partition splits (Pi=2), a partition hot at MaxParallelism is refused
// and left able to trigger again, all-idle partitions merge (one Merge
// record), and the once-refused partition splits as soon as the merge
// made room. Tuples stream between the transitions; every word ends up
// counted exactly once, in exactly one partition.
func TestDistributedPolicyRounds(t *testing.T) {
	reg := wordcountRegistry()
	reg.q.Op("count").MaxParallelism = 3
	cl := startClusterWith(t, reg, 3, func(c *dist.Config) {
		// The workers' own report loops stay silent: the script is the
		// only source of reports.
		c.Policy = &control.Policy{Threshold: 0.7, ConsecutiveReports: 1, ReportEveryMillis: time.Hour.Milliseconds()}
		c.ScaleIn = &control.ScaleInPolicy{LowWatermark: 0.25, ConsecutiveReports: 1}
	})
	if err := cl.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	src := plan.InstanceID{Op: "src", Part: 1}
	srcWorker := cl.hostOf(t, src)
	count := func(part int) plan.InstanceID { return plan.InstanceID{Op: "count", Part: part} }
	phases := 0
	stream := func() {
		t.Helper()
		phases++
		if err := srcWorker.Engine().InjectBatch(src, 300, parityGen); err != nil {
			t.Fatal(err)
		}
		cl.quiesce(t, 300*time.Millisecond, 10*time.Second)
	}
	// round posts one report round and waits until nothing it decided is
	// pending; the books must then show want records.
	round := func(want int, utils map[int]float64) []core.Record {
		t.Helper()
		var reports []control.Report
		for part, util := range utils {
			reports = append(reports, control.Report{Inst: count(part), Util: util})
		}
		cl.coord.PostReport("script", reports)
		for deadline := time.Now().Add(10 * time.Second); cl.coord.Pending() > 0; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("transition still pending; errors %v", cl.coord.Errors())
			}
		}
		recs := cl.coord.Manager().Records()
		if len(recs) != want {
			t.Fatalf("records = %+v, want %d; errors %v", recs, want, cl.coord.Errors())
		}
		return recs
	}

	stream()
	recs := round(1, map[int]float64{1: 0.9}) // count#1 → #2 #3
	if r := recs[0]; r.Victim != count(1) || r.Pi != 2 || r.Failure || r.Merge {
		t.Fatalf("hot partition: record = %+v, want a Pi=2 split of count#1", r)
	}
	stream()
	round(2, map[int]float64{2: 0.9, 3: 0.3}) // count#2 → #4 #5, beside #3
	stream()
	// At MaxParallelism the bottleneck is refused: no record, nothing
	// pending, no error — twice, so a refusal does not wedge the next.
	for i := 0; i < 2; i++ {
		round(2, map[int]float64{4: 0.3, 5: 0.3, 3: 0.9})
	}
	if got := cl.coord.Manager().Parallelism("count"); got != 3 {
		t.Fatalf("Parallelism(count) = %d after refusals, want 3", got)
	}
	recs = round(3, map[int]float64{4: 0.05, 5: 0.05, 3: 0.2}) // #4 + #5 → #6
	if r := recs[2]; !r.Merge || r.Victim != count(4) || r.Pi != 1 || r.Failure {
		t.Fatalf("all idle: record = %+v, want a merge led by count#4", r)
	}
	stream()
	recs = round(4, map[int]float64{6: 0.3, 3: 0.9}) // the refused count#3 → #7 #8
	if r := recs[3]; r.Victim != count(3) || r.Pi != 2 || r.Merge {
		t.Fatalf("after the merge made room: record = %+v, want a Pi=2 split of count#3 (refusal left it muted?)", r)
	}
	stream()

	if got := cl.coord.Manager().Merges(); got != 1 {
		t.Errorf("Merges() = %d, want 1", got)
	}
	insts := cl.coord.Manager().Instances("count")
	if len(insts) != 3 {
		t.Fatalf("Instances(count) = %v, want 3", insts)
	}
	for i := 0; i < 10; i++ {
		w := fmt.Sprintf("w%02d", i)
		var total int64
		holders := 0
		for _, inst := range insts {
			if n := cl.counterOf(t, inst).Count(w); n > 0 {
				total += n
				holders++
			}
		}
		if want := int64(30 * phases); total != want || holders != 1 {
			t.Errorf("Count(%s) = %d over %d partitions, want %d in exactly one", w, total, holders, want)
		}
	}
	if errs := cl.coord.Errors(); len(errs) != 0 {
		t.Errorf("Errors = %v", errs)
	}
}

// TestDistributedPolicyWorkerReports: with a policy set, every worker's
// report loop streams MsgReport frames the coordinator consumes — the
// path the scripted test above bypasses.
func TestDistributedPolicyWorkerReports(t *testing.T) {
	cl := startClusterWith(t, wordcountRegistry(), 3, func(c *dist.Config) {
		c.Policy = &control.Policy{Threshold: 0.7, ConsecutiveReports: 2, ReportEveryMillis: 20}
	})
	if err := cl.coord.StartJob(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(cl.coord.WorkerStatsSnapshot()) < len(cl.workers) {
		if time.Now().After(deadline) {
			t.Fatalf("reports from %d of %d workers", len(cl.coord.WorkerStatsSnapshot()), len(cl.workers))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Idle reports decide nothing.
	if recs := cl.coord.Manager().Records(); len(recs) != 0 {
		t.Errorf("idle cluster recorded transitions: %+v", recs)
	}
}
