package engine

import (
	"sync"
	"testing"
	"time"
)

// TestEngineCheckpointStreamInterleavingExact is the regression test for
// the ack-before-state checkpoint window the barrier protocol closes:
// checkpoints are forced as fast as possible while the stream is hot, a
// failure lands on whatever checkpoint the hammering produced last, and
// recovery must reconstruct EXACTLY the undisturbed per-key results —
// every tuple reflected once, none lost in an ack-without-state gap,
// none duplicated. Before the barrier, a checkpoint could clone the ack
// watermarks between a tuple's ack advance and its state mutation, so a
// recovery from that checkpoint silently dropped the tuple; with capture
// on the node goroutine no such interleaving exists. Run under -race in
// CI.
func TestEngineCheckpointStreamInterleavingExact(t *testing.T) {
	const (
		rounds = 40
		batch  = 50
		vocab  = 25
	)
	for _, bs := range []int{1, 8} {
		e := wordEngine(t, Config{CheckpointInterval: time.Hour, BatchSize: bs})
		e.Start()

		var wg sync.WaitGroup
		injectDone := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(injectDone)
			for i := 0; i < rounds; i++ {
				if err := e.InjectBatch(inst("src", 1), batch, wordGen(vocab)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		// Hammer forced checkpoints against the hot stream: every one is
		// a barrier racing batch boundaries.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-injectDone:
					return
				default:
					if err := e.Checkpoint(inst("count", 1)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		wg.Wait()

		// Fail WITHOUT a final settling checkpoint: recovery restores
		// whichever mid-stream checkpoint the hammering produced last,
		// plus upstream-buffer replay for the suffix — the exact window
		// the barrier must keep consistent.
		if err := e.Fail(inst("count", 1)); err != nil {
			t.Fatal(err)
		}
		if err := e.Recover(inst("count", 1), 1); err != nil {
			t.Fatal(err)
		}
		if !e.Quiesce(150*time.Millisecond, 10*time.Second) {
			t.Fatal("no quiesce after recovery")
		}

		total := rounds * batch
		got := counts(e)
		if totalOf(got) != int64(total) {
			t.Errorf("batch=%d: state total after recovery = %d, want %d", bs, totalOf(got), total)
		}
		want := int64(total / vocab)
		for w, c := range got {
			if c != want {
				t.Errorf("batch=%d: count[%s] = %d, want %d", bs, w, c, want)
			}
		}
		e.Stop()
	}
}

// TestEngineEpochAdvances pins the route-table snapshot lifecycle: the
// epoch moves only on topology transitions (Start counts as the build;
// a scale out rebuilds when the victim retires and again at the
// reroute), never on the data path.
func TestEngineEpochAdvances(t *testing.T) {
	e := wordEngine(t, Config{CheckpointInterval: 50 * time.Millisecond})
	before := e.Epoch()
	if before == 0 {
		t.Fatal("no route-table snapshot after New")
	}
	e.Start()
	defer e.Stop()
	if err := e.InjectBatch(inst("src", 1), 500, wordGen(10)); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
		t.Fatal("no quiesce")
	}
	if got := e.Epoch(); got != before {
		t.Errorf("epoch advanced on the data path: %d -> %d", before, got)
	}
	if err := e.ScaleOut(inst("count", 1), 2); err != nil {
		t.Fatal(err)
	}
	if got := e.Epoch(); got != before+2 {
		t.Errorf("epoch after scale out = %d, want %d (retire + reroute)", got, before+2)
	}
}
