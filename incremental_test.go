package seep_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"seep"
)

// custom managed operator used to prove the public managed-state surface
// (StateStore / ValueState / MapState / codecs) end to end.
type visitTracker struct {
	store  *seep.StateStore
	visits *seep.MapState[int64]
	last   *seep.ValueState[string]
}

func newVisitTracker() *visitTracker {
	st := seep.NewStateStore()
	return &visitTracker{
		store:  st,
		visits: seep.NewMapState[int64](st, "visits", seep.Int64Codec{}),
		last:   seep.NewValueState[string](st, "last", seep.StringCodec{}),
	}
}

func (v *visitTracker) State() *seep.StateStore { return v.store }

func (v *visitTracker) OnTuple(_ seep.Context, t seep.Tuple, emit seep.Emitter) {
	page, ok := t.Payload.(string)
	if !ok {
		return
	}
	n := v.visits.Update(t.Key, page, func(c int64) int64 { return c + 1 })
	v.last.Set(t.Key, page)
	emit(t.Key, fmt.Sprintf("%s=%d", page, n))
}

func (v *visitTracker) total() int64 {
	var n int64
	v.visits.ForEach(func(_ seep.Key, _ string, c int64) { n += c })
	return n
}

// TestIncrementalCheckpointsBothSubstrates deploys a custom
// managed-state operator with WithIncrementalCheckpoints on the live
// engine and the simulator: deltas must ship on both, shrink bytes
// versus full snapshots, and recovery must reconstruct exact state from
// the folded backup.
func TestIncrementalCheckpointsBothSubstrates(t *testing.T) {
	topo := func() *seep.Topology {
		return seep.NewTopology().
			Source("src").
			Stateful("track", func() seep.Operator { return newVisitTracker() }).
			Sink("sink")
	}
	gen := func(i uint64) (seep.Key, any) {
		p := fmt.Sprintf("page%03d", i%200)
		return seep.KeyOfString(p), p
	}
	for _, tc := range []struct {
		name string
		rt   seep.Runtime
	}{
		{"live", seep.Live(
			seep.WithCheckpointInterval(100*time.Millisecond),
			seep.WithDetectDelay(200*time.Millisecond),
			seep.WithIncrementalCheckpoints(),
		)},
		{"sim", seep.Simulated(
			seep.WithSeed(7),
			seep.WithCheckpointInterval(500*time.Millisecond),
			seep.WithIncrementalCheckpoints(),
		)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job, err := tc.rt.Deploy(topo())
			if err != nil {
				t.Fatal(err)
			}
			job.Start()
			defer job.Stop()
			// Base state over 200 keys, then several small-churn batches
			// separated by checkpoint intervals so deltas ship.
			if err := job.InjectBatch("src", 1000, gen); err != nil {
				t.Fatal(err)
			}
			job.Run(2 * time.Second)
			for i := 0; i < 3; i++ {
				if err := job.InjectBatch("src", 20, gen); err != nil {
					t.Fatal(err)
				}
				job.Run(2 * time.Second)
			}
			insts := job.Instances("track")
			if len(insts) != 1 {
				t.Fatalf("instances = %v", insts)
			}
			if err := job.Fail(insts[0]); err != nil {
				t.Fatal(err)
			}
			job.Run(3 * time.Second)

			m := job.MetricsSnapshot()
			if len(m.Errors) != 0 {
				t.Fatalf("job errors: %v", m.Errors)
			}
			if m.Checkpoints.Deltas == 0 {
				t.Fatalf("no incremental checkpoints shipped: %+v", m.Checkpoints)
			}
			if avgD, avgF := m.Checkpoints.DeltaBytes/m.Checkpoints.Deltas, m.Checkpoints.FullBytes/m.Checkpoints.Fulls; avgD >= avgF {
				t.Errorf("avg delta bytes %d not smaller than avg full bytes %d", avgD, avgF)
			}
			var got int64
			for _, in := range job.Instances("track") {
				if op, ok := job.OperatorOf(in).(*visitTracker); ok {
					got += op.total()
				}
			}
			if got != 1060 {
				t.Errorf("visits after recovery = %d, want 1060", got)
			}
		})
	}
}

// TestIncrementalCheckpointOptionValidation: an unsupported FT-mode
// combination is a Deploy error, never silent.
func TestIncrementalCheckpointOptionValidation(t *testing.T) {
	topo := wordcountTopology()
	if _, err := seep.Simulated(
		seep.WithFTMode(seep.FTSourceReplay),
		seep.WithIncrementalCheckpoints(),
	).Deploy(topo); err == nil || !strings.Contains(err.Error(), "FTRSM") {
		t.Errorf("non-RSM mode error = %v", err)
	}
}
