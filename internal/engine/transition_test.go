package engine

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

// tripCounter is a keyed counter whose state codec fails its next decode
// whenever trip is armed — a replacement that cannot restore.
type tripCounter struct {
	store *state.Store
	n     *state.Value[int64]
}

func newTripCounter(trip *atomic.Bool) *tripCounter {
	st := state.NewStore()
	codec := state.CodecFunc[int64]{
		Enc: state.Int64Codec{}.Encode,
		Dec: func(b []byte) (int64, error) {
			if trip.CompareAndSwap(true, false) {
				return 0, errors.New("tripped decode")
			}
			return state.Int64Codec{}.Decode(b)
		},
	}
	return &tripCounter{store: st, n: state.NewValue[int64](st, "n", codec)}
}

func (c *tripCounter) State() *state.Store { return c.store }

func (c *tripCounter) OnTuple(_ operator.Context, t stream.Tuple, _ operator.Emitter) {
	c.n.Update(t.Key, func(v int64) int64 { return v + 1 })
}

// TestTransitionFallsBackWhenRestoreFails: a replacement whose restore
// fails after planning already swapped the victim out of the graph,
// routing and backup store must not strand the key range. Every
// transition kind falls back, once, to recovering the planned instance
// from its stored checkpoint; afterwards every key is served with its
// exact count and the operator can still be scaled.
func TestTransitionFallsBackWhenRestoreFails(t *testing.T) {
	const keys, rounds = 16, 25
	gen := func(i uint64) (stream.Key, any) { return stream.Key(i%keys) * (stream.MaxKey / keys), nil }
	kinds := map[string]func(e *Engine) error{
		"scale out": func(e *Engine) error { return e.ScaleOut(e.Manager().Instances("count")[0], 2) },
		"recovery": func(e *Engine) error {
			victim := e.Manager().Instances("count")[0]
			if err := e.Fail(victim); err != nil {
				return err
			}
			return e.Recover(victim, 1)
		},
		"merge": func(e *Engine) error { return e.MergeInstances(e.Manager().Instances("count")) },
	}
	for name, transition := range kinds {
		t.Run(name, func(t *testing.T) {
			var trip atomic.Bool
			q := plan.NewQuery()
			q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
			q.AddOp(plan.OpSpec{ID: "count", Role: plan.RoleStateful})
			q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
			q.Connect("src", "count")
			q.Connect("count", "sink")
			e, err := New(Config{CheckpointInterval: 20 * time.Millisecond}, q,
				map[plan.OpID]operator.Factory{"count": func() operator.Operator { return newTripCounter(&trip) }})
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()
			var want int64 // per key
			inject := func() {
				t.Helper()
				want += rounds
				if err := e.InjectBatch(inst("src", 1), keys*rounds, gen); err != nil {
					t.Fatal(err)
				}
				if !e.Quiesce(100*time.Millisecond, 5*time.Second) {
					t.Fatal("no quiesce")
				}
			}
			inject()
			if name == "merge" {
				if err := e.ScaleOut(inst("count", 1), 2); err != nil {
					t.Fatal(err)
				}
				inject()
			}

			trip.Store(true)
			if err := transition(e); err == nil {
				t.Error("transition with a failed restore reported no error")
			}
			if trip.Load() {
				t.Fatal("the restore never hit the armed codec")
			}
			inject()

			got := make(map[stream.Key]int64)
			for _, in := range e.Manager().Instances("count") {
				op, _ := e.OperatorOf(in).(*tripCounter)
				if op == nil {
					t.Fatalf("%v is in the graph but no node hosts it", in)
				}
				op.n.ForEach(func(k stream.Key, v int64) { got[k] += v })
			}
			if len(got) != keys {
				t.Errorf("%d keys served, want %d", len(got), keys)
			}
			for k, v := range got {
				if v != want {
					t.Errorf("count[%d] = %d, want exactly %d", k, v, want)
				}
			}
			// The stranded-instance symptom at the parent commit: "not live".
			if err := e.ScaleOut(e.Manager().Instances("count")[0], 2); err != nil {
				t.Errorf("scale out after the fallback: %v", err)
			}
		})
	}
}
