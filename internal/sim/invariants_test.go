package sim

import (
	"testing"

	"seep/internal/plan"
)

// TestBufferTrimBoundsGrowth: under R+SM, checkpoint acknowledgements
// trim upstream output buffers, so retained state stays bounded by
// roughly one checkpoint interval of tuples (Algorithm 1 line 4). Without
// that trim the buffers would grow with the whole stream history.
func TestBufferTrimBoundsGrowth(t *testing.T) {
	c := mustCluster(t, Config{Seed: 61, Mode: FTRSM, CheckpointIntervalMillis: 5_000})
	c.RunUntil(60_000)
	split := c.Node(plan.InstanceID{Op: "split", Part: 1})
	retained := split.Buffer.Len()
	// 500 tuples/s × 5 s interval = 2500 per interval; allow 2 intervals
	// of slack (snapshot-to-trim latency).
	if retained > 2*2500+500 {
		t.Errorf("retained %d tuples; trim is not bounding buffer growth", retained)
	}
	if retained == 0 {
		t.Error("buffer empty: either no buffering or over-trimming")
	}
	src := c.Node(plan.InstanceID{Op: "src", Part: 1})
	if src.Buffer.Len() > 2*2500+500 {
		t.Errorf("source retained %d tuples", src.Buffer.Len())
	}
}

// TestWindowTrimBoundsGrowthUB: upstream backup retains only the operator
// window (state older than the window can never be needed, §6.2).
func TestWindowTrimBoundsGrowthUB(t *testing.T) {
	c := mustCluster(t, Config{Seed: 67, Mode: FTUpstreamBackup, WindowMillis: 10_000})
	c.RunUntil(60_000)
	split := c.Node(plan.InstanceID{Op: "split", Part: 1})
	// 500 tuples/s × 10 s window = 5000, plus one trim period of slack.
	if n := split.Buffer.Len(); n > 5000+1000 {
		t.Errorf("UB retained %d tuples beyond the window", n)
	}
}

// TestNoBufferingWithoutFT: with fault tolerance disabled nothing is
// retained (the zero-overhead baseline of Fig. 14).
func TestNoBufferingWithoutFT(t *testing.T) {
	c := mustCluster(t, Config{Seed: 71, Mode: FTNone})
	c.RunUntil(20_000)
	split := c.Node(plan.InstanceID{Op: "split", Part: 1})
	if n := split.Buffer.Len(); n != 0 {
		t.Errorf("FTNone retained %d tuples", n)
	}
	if c.Manager().Backups().Len() != 0 {
		t.Errorf("FTNone stored %d backups", c.Manager().Backups().Len())
	}
}

// TestRoutingAlwaysCoversKeySpace: after an arbitrary sequence of scale
// outs and recoveries, the routing for every operator still tiles the
// full key space and targets only live-or-pending instances.
func TestRoutingAlwaysCoversKeySpace(t *testing.T) {
	c := mustCluster(t, Config{
		Seed: 73, Mode: FTRSM, CheckpointIntervalMillis: 5_000,
		Pool: PoolConfig{Size: 6},
	})
	c.Sim().At(15_000, func() {
		_ = c.ScaleOut(plan.InstanceID{Op: "count", Part: 1}, 3)
	})
	c.Sim().At(40_000, func() {
		if live := c.LiveInstances("count"); len(live) > 0 {
			_ = c.FailInstance(live[0])
		}
	})
	c.Sim().At(60_000, func() {
		if live := c.LiveInstances("count"); len(live) > 1 {
			_ = c.ScaleOut(live[1], 2)
		}
	})
	c.RunUntil(100_000)

	r := c.Manager().Routing("count")
	entries := r.Entries()
	if entries[0].Range.Lo != 0 {
		t.Errorf("routing does not start at 0: %v", entries[0])
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Range.Lo != entries[i-1].Range.Hi+1 {
			t.Errorf("routing gap between %v and %v", entries[i-1], entries[i])
		}
	}
	graphInsts := make(map[plan.InstanceID]bool)
	for _, inst := range c.Manager().Instances("count") {
		graphInsts[inst] = true
	}
	for _, e := range entries {
		if !graphInsts[e.Target] {
			t.Errorf("routing targets non-graph instance %v", e.Target)
		}
	}
	// The query is still producing results at the end.
	before := c.SinkCount.Value()
	c.RunUntil(110_000)
	if c.SinkCount.Value() <= before {
		t.Error("query stopped producing after churn")
	}
}
