package sim

import (
	"math/rand"
	"testing"

	"seep/internal/plan"
)

// adjacentLivePair returns the first two partitions of count that own
// adjacent key ranges, are live and are in no transition, or nil.
func adjacentLivePair(c *Cluster, live []plan.InstanceID) []plan.InstanceID {
	ok := make(map[plan.InstanceID]bool, len(live))
	for _, inst := range live {
		ok[inst] = !c.scalingInProgress[inst]
	}
	entries := c.Manager().Routing("count").Entries()
	for i := 1; i < len(entries); i++ {
		if a, b := entries[i-1].Target, entries[i].Target; ok[a] && ok[b] {
			return []plan.InstanceID{a, b}
		}
	}
	return nil
}

// TestClusterRandomChurn subjects the cluster to a random sequence of
// failures, scale outs and scale ins across several seeds, then checks
// the global invariants: the execution graph, node table and routing
// agree; routing tiles the key space; the query still makes progress;
// and no word was lost from the counter's keyed state (each word's key
// lives in exactly one partition).
func TestClusterRandomChurn(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(string(rune('a'+seed)), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := mustCluster(t, Config{
				Seed: seed, Mode: FTRSM,
				CheckpointIntervalMillis: 5_000,
				Pool:                     PoolConfig{Size: 8},
			})
			// Schedule 8 random operations between t=15s and t=120s.
			for i := 0; i < 8; i++ {
				at := Millis(15_000 + rng.Int63n(105_000))
				op := rng.Intn(3)
				c.Sim().At(at, func() {
					live := c.LiveInstances("count")
					if len(live) == 0 {
						return
					}
					switch op {
					case 0: // fail a random partition
						_ = c.FailInstance(live[rng.Intn(len(live))])
					case 1: // split a random partition
						if len(live) < 6 {
							_ = c.ScaleOut(live[rng.Intn(len(live))], 2)
						}
					case 2: // merge an adjacent pair
						if len(live) >= 2 {
							if pair := adjacentLivePair(c, live); pair != nil {
								_ = c.ScaleIn(pair)
							}
						}
					}
				})
			}
			// Generous tail so every churn operation completes.
			c.RunUntil(300_000)

			// Invariant: routing tiles the key space and targets graph
			// instances only.
			r := c.Manager().Routing("count")
			entries := r.Entries()
			if entries[0].Range.Lo != 0 {
				t.Errorf("seed %d: routing starts at %d", seed, entries[0].Range.Lo)
			}
			for i := 1; i < len(entries); i++ {
				if entries[i].Range.Lo != entries[i-1].Range.Hi+1 {
					t.Errorf("seed %d: routing gap at %d", seed, i)
				}
			}
			graph := make(map[plan.InstanceID]bool)
			for _, inst := range c.Manager().Instances("count") {
				graph[inst] = true
			}
			for _, e := range entries {
				if !graph[e.Target] {
					t.Errorf("seed %d: routing targets stale instance %v", seed, e.Target)
				}
			}

			// Invariant: all 50 distinct words survive, each in exactly
			// the partition owning its key.
			counts := totalCounts(c)
			if len(counts) != 50 {
				t.Errorf("seed %d: %d distinct words after churn, want 50", seed, len(counts))
			}

			// Invariant: the query keeps producing.
			before := c.SinkCount.Value()
			c.RunUntil(310_000)
			if c.SinkCount.Value() <= before {
				t.Errorf("seed %d: query stalled after churn", seed)
			}
		})
	}
}
