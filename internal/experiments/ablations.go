package experiments

import (
	"fmt"
	"math/rand"

	"seep/internal/core"
	"seep/internal/plan"
	"seep/internal/sim"
	"seep/internal/state"
	"seep/internal/stream"
	"seep/internal/wordcount"
)

// AblationBackupPlacement isolates the hashed backup-operator choice of
// Algorithm 1 line 2: with many downstream partitions backing up to a
// set of upstream hosts, hashing spreads the backup load while the naive
// fixed choice concentrates it on one host (§3.2: "operators should
// balance the backup load across all of their partitioned upstream
// operators").
func AblationBackupPlacement() (*Table, error) {
	t := &Table{
		Name:    "ablation-backup-placement",
		Title:   "Backup placement: hashed (Algorithm 1) vs fixed upstream host",
		Columns: []string{"strategy", "hosts used", "max backups on one host", "total bytes on hottest host"},
		PaperResult: "§3.2: hash-based spreading balances the backup load across " +
			"partitioned upstream operators",
	}
	const downstreams = 24
	ups := make([]plan.InstanceID, 4)
	for i := range ups {
		ups[i] = plan.InstanceID{Op: "split", Part: i + 1}
	}
	mkcp := func(part int) *state.Checkpoint {
		var kv state.RunBuilder
		for k := 0; k < 64; k++ {
			kv.Append(stream.Key(part*1000+k), make([]byte, 128))
		}
		return &state.Checkpoint{
			Instance:   plan.InstanceID{Op: "count", Part: part},
			Seq:        1,
			Processing: &state.Processing{KV: kv.Run(), TS: stream.NewTSVector(1)},
			Buffer:     state.NewBuffer(),
		}
	}
	run := func(hashed bool) (hosts, maxN, maxBytes int, err error) {
		store := core.NewBackupStore()
		for part := 1; part <= downstreams; part++ {
			owner := plan.InstanceID{Op: "count", Part: part}
			host := ups[0]
			if hashed {
				host, err = core.ChooseBackup(owner, ups)
				if err != nil {
					return 0, 0, 0, err
				}
			}
			if err := store.Store(host, mkcp(part)); err != nil {
				return 0, 0, 0, err
			}
		}
		for _, u := range ups {
			owned := store.HostedBy(u)
			if len(owned) > 0 {
				hosts++
			}
			if len(owned) > maxN {
				maxN = len(owned)
				b := 0
				for _, o := range owned {
					cp, _, _ := store.Latest(o)
					b += cp.Size()
				}
				maxBytes = b
			}
		}
		return hosts, maxN, maxBytes, nil
	}
	for _, hashed := range []bool{true, false} {
		label := "fixed-first-upstream"
		if hashed {
			label = "hashed (paper)"
		}
		hosts, maxN, maxBytes, err := run(hashed)
		if err != nil {
			return nil, err
		}
		t.AddRow(label, fmt.Sprintf("%d", hosts), fmt.Sprintf("%d", maxN), fmt.Sprintf("%d", maxBytes))
	}
	t.Observation = "hashing spreads 24 backups over all upstream hosts; the fixed choice puts all 24 on one VM"
	return t, nil
}

// AblationVMPool isolates the VM pool of §5.2: recovery latency with a
// pre-allocated pool (seconds) vs raw IaaS provisioning (≈90 s).
func AblationVMPool() (*Table, error) {
	t := &Table{
		Name:    "ablation-vm-pool",
		Title:   "VM pool vs raw provisioning: failure recovery time (word count, 500 t/s, c=5 s)",
		Columns: []string{"pool size", "recovery (s)"},
		PaperResult: "§5.2: IaaS provisioning takes minutes, making on-demand requests " +
			"impractical; a small pre-allocated pool hands VMs over in seconds",
	}
	opts := wordcount.DefaultOptions()
	opts.WindowMillis = 0
	var with, without int64
	for _, size := range []int{0, 1, 2, 4} {
		cfg := sim.Config{
			Seed:                     11,
			Mode:                     sim.FTRSM,
			CheckpointIntervalMillis: 5_000,
			Pool:                     sim.PoolConfig{Size: size, ProvisionDelayMillis: 90_000},
		}
		if size == 0 {
			// withDefaults would bump 0 to 2; force an empty pool by
			// setting size -1 → clamp... instead use size 0 semantics via
			// explicit handoff: Pool.Size 0 means every acquire waits for
			// raw provisioning (see sim.Pool), so bypass the default.
			cfg.Pool.Size = -1
		}
		c, err := sim.NewCluster(cfg, wordcount.Query(opts), wordcount.Factories(opts))
		if err != nil {
			return nil, err
		}
		if err := c.AddSource(plan.InstanceID{Op: "src", Part: 1}, sim.ConstantRate(500), wordcount.WordSource(1000, 1)); err != nil {
			return nil, err
		}
		c.Sim().At(20_000, func() { _ = c.FailInstance(plan.InstanceID{Op: "count", Part: 1}) })
		c.RunUntil(200_000)
		recs := c.Manager().Records()
		if len(recs) != 1 {
			return nil, fmt.Errorf("experiments: pool ablation got %d recoveries", len(recs))
		}
		d := recs[0].Duration()
		if size == 0 {
			without = d
		} else if with == 0 {
			with = d
		}
		label := fmt.Sprintf("%d", size)
		if size == 0 {
			label = "0 (raw provisioning)"
		}
		t.AddRow(label, fmtSec(d))
	}
	t.Observation = fmt.Sprintf("pool cuts recovery from %.1f s to %.1f s by masking the 90 s provisioning delay",
		float64(without)/1000, float64(with)/1000)
	return t, nil
}

// AblationIncrementalCheckpoint isolates the incremental checkpointing
// extension (§3.2 mentions it as a size reduction): bytes shipped per
// checkpoint, full vs delta, as the fraction of dirtied keys varies.
func AblationIncrementalCheckpoint() (*Table, error) {
	t := &Table{
		Name:    "ablation-incremental-checkpoint",
		Title:   "Full vs incremental checkpoints: bytes shipped per interval (10^4 keys, 64 B values)",
		Columns: []string{"dirty keys per interval", "full (KB)", "delta (KB)", "reduction"},
		PaperResult: "§3.2: \"to reduce the size of checkpoints, it is also possible to use " +
			"incremental checkpointing techniques\"",
	}
	const keys = 10_000
	rng := rand.New(rand.NewSource(3))
	// The managed store is the system's one delta producer: dirtying
	// keys through a cell is exactly what operators do at runtime.
	st := state.NewStore()
	blobs := state.NewValue[[]byte](st, "blob", state.CodecFunc[[]byte]{
		Enc: func(b []byte) ([]byte, error) { return b, nil },
		Dec: func(b []byte) ([]byte, error) { return append([]byte(nil), b...), nil },
	})
	for i := 0; i < keys; i++ {
		v := make([]byte, 64)
		rng.Read(v)
		blobs.Set(stream.Key(stream.Mix64(uint64(i))), v)
	}
	if _, err := st.TakeCheckpoint(); err != nil {
		return nil, err
	}
	full := st.LastFullSize()
	allKeys := st.Keys()
	seq := uint64(1)
	for _, dirtyFrac := range []float64{0.01, 0.05, 0.25, 1.0} {
		dirty := int(dirtyFrac * keys)
		for i := 0; i < dirty; i++ {
			k := allKeys[rng.Intn(len(allKeys))]
			blobs.Update(k, func(b []byte) []byte { b[0]++; return b })
		}
		delta, err := st.TakeDelta(stream.NewTSVector(1), seq, seq+1)
		if err != nil {
			return nil, err
		}
		seq++
		t.AddRow(
			fmt.Sprintf("%.0f%%", dirtyFrac*100),
			fmt.Sprintf("%.0f", float64(full)/1024),
			fmt.Sprintf("%.0f", float64(delta.Size())/1024),
			fmt.Sprintf("%.1fx", float64(full)/float64(delta.Size())),
		)
	}
	t.Observation = "delta size tracks the dirtied fraction; sparse updates ship orders of magnitude less"
	return t, nil
}

// AblationKeySplit isolates the key-split strategy of Algorithm 2: even
// hash splitting vs frequency-guided splitting on a skewed key
// distribution, measured as post-split load imbalance.
func AblationKeySplit() (*Table, error) {
	t := &Table{
		Name:    "ablation-key-split",
		Title:   "Key split strategy under skew: even hash split vs frequency-guided (π=2)",
		Columns: []string{"strategy", "hot partition load", "cold partition load", "imbalance"},
		PaperResult: "§3.2: \"the key space can be distributed evenly using hash partitioning, " +
			"or the key distribution can be used to guide the split\"",
	}
	// Zipf-skewed workload over 1000 keys.
	rng := rand.New(rand.NewSource(5))
	zipf := rand.NewZipf(rng, 1.2, 1.0, 999)
	weights := make(map[stream.Key]float64)
	var keys []stream.Key
	for i := 0; i < 200_000; i++ {
		k := stream.Key(stream.Mix64(zipf.Uint64()))
		if _, ok := weights[k]; !ok {
			keys = append(keys, k)
		}
		weights[k]++
	}
	measure := func(ranges []state.KeyRange) (hot, cold float64) {
		loads := make([]float64, len(ranges))
		for k, w := range weights {
			for i, r := range ranges {
				if r.Contains(k) {
					loads[i] += w
					break
				}
			}
		}
		hot, cold = loads[0], loads[0]
		for _, l := range loads[1:] {
			if l > hot {
				hot = l
			}
			if l < cold {
				cold = l
			}
		}
		return hot, cold
	}
	even := state.FullRange.SplitEven(2)
	ks := make([]stream.Key, 0, len(weights))
	ws := make([]float64, 0, len(weights))
	for _, k := range keys {
		ks = append(ks, k)
		ws = append(ws, weights[k])
	}
	weighted := state.FullRange.SplitByWeight(2, ks, ws)
	for _, c := range []struct {
		label  string
		ranges []state.KeyRange
	}{{"even hash split", even}, {"frequency-guided", weighted}} {
		hot, cold := measure(c.ranges)
		imb := hot / cold
		t.AddRow(c.label, fmt.Sprintf("%.0f", hot), fmt.Sprintf("%.0f", cold), fmt.Sprintf("%.2fx", imb))
	}
	t.Observation = "frequency-guided splitting narrows the hot/cold partition gap under Zipf skew"
	return t, nil
}
