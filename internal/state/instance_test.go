package state

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"seep/internal/plan"
	"seep/internal/stream"
)

// testInstance is an instance bundle over a one-cell store, plus the
// cell so the test can mutate operator state.
type testInstance struct {
	Instance
	cell *Value[int64]
}

func newTestInstance(stateful bool) *testInstance {
	ti := &testInstance{}
	var s *Store
	if stateful {
		s = NewStore()
		ti.cell = NewValue[int64](s, "n", Int64Codec{})
	}
	ti.Instance = NewInstance(s)
	return ti
}

// step applies one round of processing to the bundle: operator-state
// writes and deletes, advancing acknowledgements, and buffered output.
// heavy rounds rewrite most of the key space, so the delta they produce
// is too large for the policy.
func (ti *testInstance) step(r *rand.Rand, heavy bool) {
	up := plan.InstanceID{Op: "up", Part: 1 + r.Intn(2)}
	down := plan.InstanceID{Op: "down", Part: 1 + r.Intn(2)}
	writes := 1 + r.Intn(4)
	if heavy {
		writes = 64
	}
	for i := 0; i < writes; i++ {
		k := stream.Key(r.Intn(64))
		if ti.cell != nil {
			if r.Intn(8) == 0 {
				ti.cell.Delete(k)
			} else {
				ti.cell.Update(k, func(v int64) int64 { return v + 1 })
			}
		}
		ti.Acks[up]++
		ti.Buffer.Append(down, stream.Tuple{TS: ti.OutClock.Next(), Key: k, Payload: "p"})
	}
}

// TestCaptureSequenceProperty drives the shared checkpoint-state over
// 200 seeded schedules twice — engine-style (BeginCheckpoint under a
// lock, Checkpoint outside it) and simulator-style (one inline chain) —
// and checks that both yield the same full/delta sequence, that the
// sequence is the one an independent model of the policy predicts, and
// that every capture bumps Seq exactly once, a refused delta included.
func TestCaptureSequenceProperty(t *testing.T) {
	var refused, deltas, fulls int
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		incremental := r.Intn(4) != 0
		stateful := r.Intn(8) != 0
		eng, sim := newTestInstance(stateful), newTestInstance(stateful)
		id := plan.InstanceID{Op: "op", Part: 1}
		var mu sync.Mutex
		// The model: whether a full checkpoint is owed, and the length of
		// the delta chain since the last full one.
		owed, chain := true, 0
		for round := 0; round < 40; round++ {
			stepSeed, heavy := r.Int63(), r.Intn(5) == 0
			eng.step(rand.New(rand.NewSource(stepSeed)), heavy)
			sim.step(rand.New(rand.NewSource(stepSeed)), heavy)
			if r.Intn(10) == 0 {
				// The backup host refused the last checkpoint.
				eng.NeedFull, sim.NeedFull, owed = true, true, true
			}

			mu.Lock()
			c := eng.BeginCheckpoint(id)
			mu.Unlock()
			eCp := c.Checkpoint(incremental)
			sCp := sim.BeginCheckpoint(id).Checkpoint(incremental)

			if !reflect.DeepEqual(eCp, sCp) {
				t.Fatalf("seed %d round %d: engine-style and sim-style captures differ:\n%+v\n%+v", seed, round, eCp, sCp)
			}
			if eCp == nil {
				t.Fatalf("seed %d round %d: no capture", seed, round)
			}
			want := uint64(round + 1)
			tried := stateful && incremental && !owed && chain < fullEvery-1
			switch {
			case eCp.Base != 0:
				deltas++
				if !tried {
					t.Fatalf("seed %d round %d: delta although a full checkpoint was due (owed=%v chain=%d incremental=%v)", seed, round, owed, chain, incremental)
				}
				if eCp.Base != want-1 || eCp.Seq != want {
					t.Fatalf("seed %d round %d: delta chains %d→%d, want %d→%d", seed, round, eCp.Base, eCp.Seq, want-1, want)
				}
				if err := eCp.Validate(); err != nil {
					t.Fatalf("seed %d round %d: %v", seed, round, err)
				}
				chain++
			default:
				fulls++
				if tried {
					// Only the size guard can turn a tried delta into a full
					// checkpoint, and it does so under the same number.
					refused++
				}
				if eCp.Seq != want {
					t.Fatalf("seed %d round %d: full checkpoint Seq = %d, want %d (one bump per capture; delta tried: %v)", seed, round, eCp.Seq, want, tried)
				}
				owed, chain = false, 0
			}
			if eng.Seq != want || eng.NeedFull {
				t.Fatalf("seed %d round %d: after capture Seq=%d NeedFull=%v, want %d false", seed, round, eng.Seq, eng.NeedFull, want)
			}
		}
	}
	if refused == 0 || deltas == 0 || fulls == 0 {
		t.Fatalf("schedules too tame: %d fulls, %d deltas, %d refused deltas", fulls, deltas, refused)
	}
}

// TestRestoreOfCaptureIsIdentity: installing an instance's full
// checkpoint on a fresh bundle reproduces the bundle — processing
// state, acknowledgements, timestamp vector, output clock, buffer,
// legacy buffers and checkpoint numbering — and leaves it owing a full
// checkpoint.
func TestRestoreOfCaptureIsIdentity(t *testing.T) {
	id := plan.InstanceID{Op: "op", Part: 1}
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		x := newTestInstance(true)
		for i := 0; i < 1+r.Intn(20); i++ {
			x.step(r, false)
			if r.Intn(3) == 0 {
				x.BeginCheckpoint(id).Checkpoint(true)
			}
		}
		if r.Intn(2) == 0 {
			victim := plan.InstanceID{Op: "op", Part: 7}
			lb := NewBuffer()
			lb.Append(plan.InstanceID{Op: "down", Part: 1}, stream.Tuple{TS: 3, Key: 9, Payload: "old"})
			x.Legacy = map[plan.InstanceID]*Buffer{victim: lb, {Op: "op", Part: 8}: NewBuffer()}
		}
		x.NeedFull = true
		cp := x.BeginCheckpoint(id).Checkpoint(false)
		if cp == nil {
			t.Fatalf("seed %d: no full checkpoint", seed)
		}

		y := newTestInstance(true)
		if err := y.Restore(cp); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !y.NeedFull || y.Store.DeltasSinceFull() != 0 {
			t.Errorf("seed %d: restored bundle does not owe a full checkpoint", seed)
		}
		// Recapturing the restored bundle must give the checkpoint it was
		// restored from, one sequence number later.
		again := y.BeginCheckpoint(id).Checkpoint(false)
		if again == nil || again.Seq != cp.Seq+1 {
			t.Fatalf("seed %d: recapture = %+v, want Seq %d", seed, again, cp.Seq+1)
		}
		again.Seq = cp.Seq
		if !reflect.DeepEqual(again, cp) {
			t.Errorf("seed %d: restore(capture(x)) != x:\n got %+v\nwant %+v", seed, again, cp)
		}
	}
}
