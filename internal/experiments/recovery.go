package experiments

import (
	"fmt"

	"seep/internal/plan"
	"seep/internal/sim"
	"seep/internal/wordcount"
)

// RecoveryScale shrinks the recovery experiments for quick runs: 1.0 is
// paper scale (rates up to 1000 tuples/s, 3 repetitions), smaller values
// reduce rates and repetitions proportionally.
type RecoveryScale struct {
	// RateFactor scales the input rates (1.0 = 100/500/1000 tuples/s).
	RateFactor float64
	// Reps is the number of seeded repetitions averaged per point.
	Reps int
	// Vocabulary sets the word counter's state size (keys).
	Vocabulary int
}

// DefaultRecoveryScale is the paper-scale configuration.
func DefaultRecoveryScale() RecoveryScale {
	return RecoveryScale{RateFactor: 1.0, Reps: 3, Vocabulary: 10_000}
}

// QuickRecoveryScale is a reduced configuration for benchmarks.
func QuickRecoveryScale() RecoveryScale {
	return RecoveryScale{RateFactor: 0.2, Reps: 1, Vocabulary: 1_000}
}

// recoveryRun measures one failure recovery of the word counter.
type recoveryRun struct {
	mode       sim.FTMode
	rate       float64
	intervalMS int64
	pi         int
	seed       int64
	vocabulary int
}

// measureRecovery fails the word counter after the 30 s window has
// filled and returns the measured recovery time in milliseconds.
func measureRecovery(r recoveryRun) (int64, error) {
	opts := wordcount.DefaultOptions()
	opts.WindowMillis = 0 // continuous counts; UB/SR retention window below
	cfg := sim.Config{
		Seed:                     r.seed,
		Mode:                     r.mode,
		CheckpointIntervalMillis: r.intervalMS,
		WindowMillis:             30_000,
		RecoveryParallelism:      r.pi,
	}
	c, err := sim.NewCluster(cfg, wordcount.Query(opts), wordcount.Factories(opts))
	if err != nil {
		return 0, err
	}
	if err := c.AddSource(plan.InstanceID{Op: "src", Part: 1}, sim.ConstantRate(r.rate), wordcount.WordSource(r.vocabulary, r.seed)); err != nil {
		return 0, err
	}
	// Fail just before a checkpoint would have fired, after the 30 s
	// window has filled: the replayed window is then ≈ one full
	// checkpointing interval — the worst case the paper describes
	// ("in the worst case, it must replay 5 s worth of tuples", §6.2).
	failAt := (45_000/r.intervalMS+1)*r.intervalMS - 250
	c.Sim().At(failAt, func() {
		_ = c.FailInstance(plan.InstanceID{Op: "count", Part: 1})
	})
	// Run long enough for the slowest mechanism to finish replay.
	c.RunUntil(failAt + 150_000)
	recs := c.Manager().Records()
	if len(recs) != 1 {
		return 0, fmt.Errorf("experiments: %d recoveries recorded (mode %v rate %v)", len(recs), r.mode, r.rate)
	}
	return recs[0].Duration(), nil
}

func avgRecovery(base recoveryRun, reps int) (int64, error) {
	if reps < 1 {
		reps = 1
	}
	var total int64
	for i := 0; i < reps; i++ {
		run := base
		run.seed = base.seed + int64(i)*101
		d, err := measureRecovery(run)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total / int64(reps), nil
}

// Fig11 compares recovery time of R+SM against source replay (SR) and
// upstream backup (UB) at input rates 100/500/1000 tuples/s with a 30 s
// window and c = 5 s (§6.2, Fig. 11).
func Fig11(s RecoveryScale) (*Table, error) {
	t := &Table{
		Name:    "fig11",
		Title:   "Recovery time for different fault tolerance mechanisms (word count, 30 s window, c=5 s)",
		Columns: []string{"rate (tuples/s)", "R+SM (s)", "SR (s)", "UB (s)"},
		PaperResult: "R+SM lowest at every rate (≈1-4 s); SR slightly faster than UB; " +
			"gap grows with input rate (UB/SR reach ≈8-13 s at 1000 tuples/s)",
	}
	rates := []float64{100, 500, 1000}
	var rsmMax, ubMax int64
	for _, rate := range rates {
		scaled := rate * s.RateFactor
		row := []string{fmt.Sprintf("%.0f", scaled)}
		var vals []int64
		for _, mode := range []sim.FTMode{sim.FTRSM, sim.FTSourceReplay, sim.FTUpstreamBackup} {
			d, err := avgRecovery(recoveryRun{
				mode: mode, rate: scaled, intervalMS: 5_000, pi: 1, seed: 1000, vocabulary: s.Vocabulary,
			}, s.Reps)
			if err != nil {
				return nil, err
			}
			vals = append(vals, d)
			row = append(row, fmtSec(d))
		}
		t.AddRow(row...)
		rsmMax, ubMax = vals[0], vals[2]
	}
	t.Observation = fmt.Sprintf("at the highest rate: R+SM %.1f s vs UB %.1f s (%.1fx)",
		float64(rsmMax)/1000, float64(ubMax)/1000, float64(ubMax)/float64(rsmMax))
	return t, nil
}

// Fig12 measures R+SM recovery time across checkpointing intervals
// 1-30 s for three input rates (§6.2, Fig. 12).
func Fig12(s RecoveryScale) (*Table, error) {
	t := &Table{
		Name:    "fig12",
		Title:   "Recovery time vs checkpointing interval (R+SM)",
		Columns: []string{"interval (s)", "100 t/s (s)", "500 t/s (s)", "1000 t/s (s)"},
		PaperResult: "recovery time grows with the checkpointing interval (more tuples " +
			"replayed) and with the input rate; ≈1-8 s over intervals 1-30 s",
	}
	intervals := []int64{1, 5, 10, 15, 20, 25, 30}
	var first, last int64
	for _, iv := range intervals {
		row := []string{fmt.Sprintf("%d", iv)}
		for _, rate := range []float64{100, 500, 1000} {
			d, err := avgRecovery(recoveryRun{
				mode: sim.FTRSM, rate: rate * s.RateFactor, intervalMS: iv * 1000, pi: 1,
				seed: 2000, vocabulary: s.Vocabulary,
			}, s.Reps)
			if err != nil {
				return nil, err
			}
			if iv == intervals[0] && rate == 1000 {
				first = d
			}
			if iv == intervals[len(intervals)-1] && rate == 1000 {
				last = d
			}
			row = append(row, fmtSec(d))
		}
		t.AddRow(row...)
	}
	t.Observation = fmt.Sprintf("at the highest rate, recovery grows from %.1f s (c=1 s) to %.1f s (c=30 s)",
		float64(first)/1000, float64(last)/1000)
	return t, nil
}

// Fig13 compares serial (π=1) and parallel (π=2) R+SM recovery across
// checkpointing intervals at 500 tuples/s (§6.2, Fig. 13).
func Fig13(s RecoveryScale) (*Table, error) {
	t := &Table{
		Name:    "fig13",
		Title:   "Serial vs parallel recovery (R+SM, 500 tuples/s)",
		Columns: []string{"interval (s)", "serial (s)", "parallel π=2 (s)"},
		PaperResult: "short intervals: parallel recovery loses (overhead of two partitioned " +
			"operators); long intervals: parallel wins by replaying halves concurrently",
	}
	rate := 500 * s.RateFactor
	var crossed bool
	for _, iv := range []int64{1, 5, 10, 15, 20, 25, 30} {
		serial, err := avgRecovery(recoveryRun{
			mode: sim.FTRSM, rate: rate, intervalMS: iv * 1000, pi: 1, seed: 3000, vocabulary: s.Vocabulary,
		}, s.Reps)
		if err != nil {
			return nil, err
		}
		par, err := avgRecovery(recoveryRun{
			mode: sim.FTRSM, rate: rate, intervalMS: iv * 1000, pi: 2, seed: 3000, vocabulary: s.Vocabulary,
		}, s.Reps)
		if err != nil {
			return nil, err
		}
		if par < serial {
			crossed = true
		}
		t.AddRow(fmt.Sprintf("%d", iv), fmtSec(serial), fmtSec(par))
	}
	if crossed {
		t.Observation = "parallel recovery overtakes serial as the interval (and replay volume) grows"
	} else {
		t.Observation = "parallel recovery did not overtake serial at this scale"
	}
	return t, nil
}
