package sim

import (
	"math"
	"testing"

	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/stream"
)

// sumQuery is a minimal managed-state pipeline: source → keyed sum →
// sink, with per-key float accumulators in a managed cell.
func sumQuery() *plan.Query {
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	q.AddOp(plan.OpSpec{ID: "sum", Role: plan.RoleStateful, CostPerTuple: 0.0004})
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	q.Connect("src", "sum")
	q.Connect("sum", "sink")
	return q
}

func sumFactories() map[plan.OpID]operator.Factory {
	return map[plan.OpID]operator.Factory{
		"sum": func() operator.Operator {
			return operator.NewKeyedSum(0, func(p any) (float64, bool) {
				v, ok := p.(float64)
				return v, ok
			})
		},
	}
}

// sumGen spreads tuples over nKeys keys with a key-dependent payload, so
// lost or double-counted tuples shift per-key sums detectably.
func sumGen(nKeys int) Generator {
	return func(i uint64) (stream.Key, any) {
		k := stream.Key(stream.Mix64(i % uint64(nKeys)))
		return k, float64(i%7) + 0.5
	}
}

// perKeySums collects the accumulator of every key across the live sum
// partitions.
func perKeySums(c *Cluster) map[stream.Key]float64 {
	out := make(map[stream.Key]float64)
	for _, inst := range c.Manager().Instances("sum") {
		n := c.Node(inst)
		if n == nil {
			continue
		}
		ks := n.op.(*operator.KeyedSum)
		for _, k := range ks.State().Keys() {
			out[k] += ks.Sum(k)
		}
	}
	return out
}

// TestManagedStateScaleOutIntegrity partitions a managed-state operator
// mid-stream and asserts per-key results are identical to an
// unpartitioned run: no key lost, none double-counted. This is the
// managed-state API carrying Algorithm 2's partition primitive
// end-to-end.
func TestManagedStateScaleOutIntegrity(t *testing.T) {
	run := func(scale bool) map[stream.Key]float64 {
		c, err := NewCluster(Config{Seed: 21, Mode: FTRSM, CheckpointIntervalMillis: 5_000}, sumQuery(), sumFactories())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddSource(plan.InstanceID{Op: "src", Part: 1}, ConstantRate(800), sumGen(64)); err != nil {
			t.Fatal(err)
		}
		if scale {
			c.Sim().At(20_000, func() {
				if err := c.ScaleOut(plan.InstanceID{Op: "sum", Part: 1}, 2); err != nil {
					t.Error(err)
				}
			})
		}
		c.RunUntil(50_000)
		if scale {
			if got := c.Manager().Parallelism("sum"); got != 2 {
				t.Fatalf("parallelism = %d, want 2", got)
			}
		}
		return perKeySums(c)
	}
	want := run(false)
	got := run(true)
	if len(got) != len(want) {
		t.Fatalf("distinct keys: got %d, want %d", len(got), len(want))
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("sum[%d] = %v after scale out, want %v", k, got[k], w)
		}
	}
}

// TestManagedStateScaleInIntegrity continues past a scale out with a
// scale in (merge, §3.3): after splitting and re-merging mid-stream the
// per-key sums still match the undisturbed run.
func TestManagedStateScaleInIntegrity(t *testing.T) {
	run := func(elastic bool) map[stream.Key]float64 {
		// Pool large enough for a split (2 VMs) followed by a merge (1)
		// without waiting out the 90 s refill delay.
		c, err := NewCluster(Config{
			Seed: 23, Mode: FTRSM, CheckpointIntervalMillis: 5_000,
			Pool: PoolConfig{Size: 4},
		}, sumQuery(), sumFactories())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddSource(plan.InstanceID{Op: "src", Part: 1}, ConstantRate(800), sumGen(64)); err != nil {
			t.Fatal(err)
		}
		if elastic {
			c.Sim().At(15_000, func() {
				if err := c.ScaleOut(plan.InstanceID{Op: "sum", Part: 1}, 2); err != nil {
					t.Error(err)
				}
			})
			c.Sim().At(35_000, func() {
				insts := c.LiveInstances("sum")
				if len(insts) != 2 {
					t.Errorf("pre-merge instances = %v", insts)
					return
				}
				if err := c.ScaleIn(insts); err != nil {
					t.Error(err)
				}
			})
		}
		c.RunUntil(60_000)
		if elastic {
			if got := c.Manager().Parallelism("sum"); got != 1 {
				t.Fatalf("parallelism after merge = %d, want 1", got)
			}
		}
		return perKeySums(c)
	}
	want := run(false)
	got := run(true)
	if len(got) != len(want) {
		t.Fatalf("distinct keys: got %d, want %d", len(got), len(want))
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("sum[%d] = %v after split+merge, want %v", k, got[k], w)
		}
	}
}

// TestSimIncrementalCheckpointRecovery runs the sim with incremental
// checkpoints on: deltas must actually ship (and be cheaper than fulls),
// and recovery from the folded backup must reconstruct exact state.
func TestSimIncrementalCheckpointRecovery(t *testing.T) {
	run := func(incremental, fail bool) (map[stream.Key]float64, *Cluster) {
		c, err := NewCluster(Config{
			Seed: 31, Mode: FTRSM,
			CheckpointIntervalMillis: 2_000,
			Incremental:              incremental,
		}, sumQuery(), sumFactories())
		if err != nil {
			t.Fatal(err)
		}
		// Prefill a large keyspace so per-interval churn (64 hot keys)
		// is a small fraction of the state — the workload incremental
		// checkpoints exist for.
		ks := c.OperatorOf(plan.InstanceID{Op: "sum", Part: 1}).(*operator.KeyedSum)
		drop := func(stream.Key, any) {}
		for i := 0; i < 5_000; i++ {
			ks.OnTuple(operator.Context{}, stream.Tuple{
				Key:     stream.Key(stream.Mix64(1_000_000 + uint64(i))),
				Payload: 1.0,
			}, drop)
		}
		if err := c.AddSource(plan.InstanceID{Op: "src", Part: 1}, ConstantRate(800), sumGen(64)); err != nil {
			t.Fatal(err)
		}
		if fail {
			c.Sim().At(30_000, func() {
				if err := c.FailInstance(plan.InstanceID{Op: "sum", Part: 1}); err != nil {
					t.Error(err)
				}
			})
		}
		c.RunUntil(60_000)
		return perKeySums(c), c
	}
	want, _ := run(false, true)
	got, c := run(true, true)

	ship := c.Manager().Backups().ShipStats()
	if ship.Deltas == 0 {
		t.Fatalf("no incremental checkpoints shipped: %+v", ship)
	}
	if len(c.Manager().Records()) != 1 {
		t.Fatalf("recoveries = %+v", c.Manager().Records())
	}
	if errs := c.RecoveryFailures(); len(errs) != 0 {
		t.Fatalf("recovery failures: %v", errs)
	}
	avgDelta := float64(ship.DeltaBytes) / float64(ship.Deltas)
	avgFull := float64(ship.FullBytes) / float64(ship.Fulls)
	if avgDelta >= avgFull {
		t.Errorf("avg delta %f bytes not smaller than avg full %f bytes", avgDelta, avgFull)
	}
	// Recovery from folded (base + deltas) backups yields the same
	// per-key state as recovery from full checkpoints.
	if len(got) != len(want) {
		t.Fatalf("distinct keys: got %d, want %d", len(got), len(want))
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("sum[%d] = %v with incremental checkpoints, want %v", k, got[k], w)
		}
	}
}
