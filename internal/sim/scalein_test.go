package sim

import (
	"testing"

	"seep/internal/plan"
)

func TestClusterScaleInMergesState(t *testing.T) {
	c := mustCluster(t, Config{
		Seed: 43, Mode: FTRSM, CheckpointIntervalMillis: 5_000,
		// A larger pool: the scale-out consumes two pooled VMs and raw
		// provisioning takes 90 virtual seconds.
		Pool: PoolConfig{Size: 4},
	})
	// Scale out to 2 partitions, then merge them back.
	c.Sim().At(15_000, func() {
		_ = c.ScaleOut(plan.InstanceID{Op: "count", Part: 1}, 2)
	})
	c.Sim().At(40_000, func() {
		live := c.LiveInstances("count")
		if len(live) != 2 {
			t.Errorf("expected 2 live partitions before scale in, got %v", live)
			return
		}
		if err := c.ScaleIn(live); err != nil {
			t.Errorf("scale in: %v", err)
		}
	})
	c.RunUntil(80_000)

	live := c.LiveInstances("count")
	if len(live) != 1 {
		t.Fatalf("after scale in: %v", live)
	}
	// All 50 words are again tracked by the single merged partition.
	counts := totalCounts(c)
	if len(counts) != 50 {
		t.Errorf("distinct words after merge = %d, want 50", len(counts))
	}
	// The merged instance owns the full key space.
	r := c.Manager().Routing("count")
	if kr, ok := r.RangeOf(live[0]); !ok || kr.Lo != 0 {
		t.Errorf("merged range = %v, %v", kr, ok)
	}
	// Tuples keep flowing after the merge.
	if c.SinkCount.Value() == 0 {
		t.Error("sink starved")
	}
}

func TestClusterScaleInGuards(t *testing.T) {
	c := mustCluster(t, Config{Seed: 47, Mode: FTRSM})
	if err := c.ScaleIn([]plan.InstanceID{{Op: "count", Part: 9}, {Op: "count", Part: 10}}); err == nil {
		t.Error("scale in of unknown instances accepted")
	}
}

// TestClusterBackupHostFailure exercises the §4.3 discussion: the VM
// storing an operator's checkpoint fails first, destroying the backup;
// when the operator itself then fails before re-checkpointing, the
// system must still make progress (restarting from empty state is the
// only option for a passive scheme) rather than hang.
func TestClusterBackupHostFailure(t *testing.T) {
	c := mustCluster(t, Config{Seed: 53, Mode: FTRSM, CheckpointIntervalMillis: 10_000})
	victim := plan.InstanceID{Op: "count", Part: 1}
	c.Sim().At(25_000, func() {
		// The splitter hosts the counter's backups (it is the only
		// upstream operator).
		host, err := c.Manager().BackupTarget(victim)
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.FailInstance(host); err != nil {
			t.Error(err)
		}
		// The backup died with its host.
		if _, _, ok := c.Manager().Backups().Latest(victim); ok {
			t.Error("backup survived host failure")
		}
	})
	// Fail the counter before the next periodic checkpoint replaces the
	// lost backup (host failed at 25 s, next checkpoint 30 s).
	c.Sim().At(27_000, func() {
		_ = c.FailInstance(victim)
	})
	c.RunUntil(90_000)

	recs := c.Manager().Records()
	if len(recs) != 2 {
		t.Fatalf("expected 2 recoveries (host + operator), got %+v", recs)
	}
	// Both logical operators are live again and processing.
	if len(c.LiveInstances("split")) != 1 || len(c.LiveInstances("count")) != 1 {
		t.Errorf("live: split=%v count=%v", c.LiveInstances("split"), c.LiveInstances("count"))
	}
	processedAfter := c.Node(c.LiveInstances("count")[0]).processed
	if processedAfter == 0 {
		t.Error("recovered counter processed nothing")
	}
}

// TestClusterRepeatedFailures injects several failures in sequence; the
// system must recover each time and keep exactly the execution-graph
// invariants (one live instance, full key-space routing).
func TestClusterRepeatedFailures(t *testing.T) {
	c := mustCluster(t, Config{Seed: 59, Mode: FTRSM, CheckpointIntervalMillis: 5_000})
	for _, at := range []Millis{20_000, 50_000, 80_000} {
		c.Sim().At(at, func() {
			live := c.LiveInstances("count")
			if len(live) == 1 {
				_ = c.FailInstance(live[0])
			}
		})
	}
	c.RunUntil(120_000)
	recs := c.Manager().Records()
	if len(recs) != 3 {
		t.Fatalf("recoveries = %d, want 3", len(recs))
	}
	live := c.LiveInstances("count")
	if len(live) != 1 {
		t.Fatalf("live = %v", live)
	}
	counts := totalCounts(c)
	if len(counts) != 50 {
		t.Errorf("distinct words after 3 failures = %d", len(counts))
	}
}

// TestClusterLegacyTrimsFollowTheManagersChain merges two partitions of
// the operator UPSTREAM of the counter. The merge product keeps the
// victims' retained output as legacy buffers under their old identities,
// and the counter's later checkpoints still acknowledge those identities:
// the trims reach the product through Manager.LegacyOwner, so the legacy
// buffers drain instead of growing stale.
func TestClusterLegacyTrimsFollowTheManagersChain(t *testing.T) {
	c := mustCluster(t, Config{
		Seed: 61, Mode: FTRSM, CheckpointIntervalMillis: 5_000,
		Pool: PoolConfig{Size: 4},
	})
	c.Sim().At(12_000, func() {
		if err := c.ScaleOut(plan.InstanceID{Op: "split", Part: 1}, 2); err != nil {
			t.Errorf("scale out: %v", err)
		}
	})
	var victims []plan.InstanceID
	c.Sim().At(41_000, func() {
		victims = c.LiveInstances("split")
		if len(victims) != 2 {
			t.Errorf("live split partitions before the merge = %v, want 2", victims)
			return
		}
		if err := c.ScaleIn(victims); err != nil {
			t.Errorf("scale in: %v", err)
		}
	})
	// Right after the switch-over the product holds what the victims had
	// retained since the counter's last checkpoint.
	var product *Node
	retained := 0
	c.Sim().At(44_000, func() {
		live := c.LiveInstances("split")
		if len(live) != 1 {
			t.Errorf("live split partitions after the merge = %v, want 1", live)
			return
		}
		product = c.Node(live[0])
		for _, v := range victims {
			if owner, ok := c.Manager().LegacyOwner(v); !ok || owner != live[0] {
				t.Errorf("LegacyOwner(%v) = %v, %v; want the merge product %v", v, owner, ok, live[0])
			}
			if lb := product.Legacy[v]; lb != nil {
				retained += lb.Len()
			}
		}
	})
	c.RunUntil(70_000)
	if product == nil {
		t.Fatal("no merge product")
	}
	if retained == 0 {
		t.Fatal("the merge product carried no legacy tuples: the test exercises nothing")
	}
	for _, v := range victims {
		if lb := product.Legacy[v]; lb != nil && lb.Len() != 0 {
			t.Errorf("legacy buffer of %v still holds %d of %d tuples after six counter checkpoints", v, lb.Len(), retained)
		}
	}
	if got := len(totalCounts(c)); got != 50 {
		t.Errorf("distinct words = %d, want 50", got)
	}
}
