package sim

import (
	"testing"

	"seep/internal/control"
	"seep/internal/plan"
)

// TestClusterElasticScaleOutThenIn drives a load pulse: the rate rises
// past one VM's capacity (forcing scale out) and then falls back, after
// which the elastic policy merges the partitions again — the "truly
// elastic deployments" the paper names as future work (§8).
func TestClusterElasticScaleOutThenIn(t *testing.T) {
	q := wordQuery()
	c, err := NewCluster(Config{
		Seed: 79, Mode: FTRSM,
		CheckpointIntervalMillis: 5_000,
		Pool:                     PoolConfig{Size: 4},
	}, q, wordFactories())
	if err != nil {
		t.Fatal(err)
	}
	// Pulse: 3000 t/s (1.5x one VM) for 100 s, then 400 t/s.
	rate := func(now Millis) float64 {
		if now < 100_000 {
			return 3000
		}
		return 400
	}
	if err := c.AddSource(plan.InstanceID{Op: "src", Part: 1}, rate, vocabGen(100)); err != nil {
		t.Fatal(err)
	}
	scaleIn := control.DefaultScaleInPolicy()
	c.EnablePolicy(control.DefaultPolicy(), &scaleIn)

	c.RunUntil(100_000)
	peak := c.Manager().Parallelism("count")
	if peak < 2 {
		t.Fatalf("no scale out under the pulse: parallelism = %d", peak)
	}

	c.RunUntil(400_000)
	settled := c.Manager().Parallelism("count")
	if settled >= peak {
		t.Errorf("no scale in after the pulse: %d -> %d partitions", peak, settled)
	}
	// Word counts survive the round trip: every word still tracked.
	counts := totalCounts(c)
	if len(counts) != 100 {
		t.Errorf("distinct words after elastic cycle = %d, want 100", len(counts))
	}
	// Still processing.
	before := c.SinkCount.Value()
	c.RunUntil(410_000)
	if c.SinkCount.Value() <= before {
		t.Error("query stalled after elastic cycle")
	}
}
