package scenario

import (
	"fmt"
	"os"
	"sort"
	"time"

	"seep"
)

// The executor. Run compiles a scenario to a seep.Topology + seep
// options, deploys it on the requested substrate, injects the seeded
// workload, drives the timed event script (virtual time on Simulated,
// wall-clock on Live/Distributed — both through Job.Run, which is the
// whole point of the shared Runtime interface), and checks the
// assertions block. Assertion misses are Result.Failures — each echoes
// the scenario name and seed so any reported run can be replayed
// exactly; infrastructure problems (deploy errors, unsupported
// substrate) are returned as an error instead.

// RunConfig parameterises one execution of a scenario.
type RunConfig struct {
	// Substrate is "sim", "live" or "dist".
	Substrate string
	// Seed overrides the scenario's seed when non-zero.
	Seed int64
	// WorkerAddrs and TopologyName connect external scenarios to running
	// seep-worker daemons (Distributed only; empty = in-process workers).
	WorkerAddrs  []string
	TopologyName string
	// ControlPlaneDir holds the Distributed coordinator's journal.
	// Scenarios with kill-coordinator events need one; when empty, the
	// executor provisions a temporary directory for the run.
	ControlPlaneDir string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Result is the outcome of one scenario execution.
type Result struct {
	Scenario  string
	Substrate string
	Seed      int64
	// Counts is the per-key managed state read back from the
	// exact-counts operator (nil without that assertion).
	Counts map[string]int64
	// Expected is the workload oracle Counts was compared against.
	Expected map[string]int64
	// Metrics is the job's final snapshot.
	Metrics seep.Metrics
	// Failures lists every assertion miss; empty = pass.
	Failures []string
}

// OK reports whether every assertion held.
func (r *Result) OK() bool { return len(r.Failures) == 0 }

// Run executes a scenario on one substrate.
func Run(s *Scenario, cfg RunConfig) (*Result, error) {
	if errs := Validate(s); len(errs) > 0 {
		return nil, fmt.Errorf("scenario %s is invalid: %v", s.Name, errs[0])
	}
	declared := false
	for _, sub := range s.Substrates {
		if sub == cfg.Substrate {
			declared = true
			break
		}
	}
	if !declared {
		return nil, fmt.Errorf("scenario %s does not declare substrate %q (declares %v)", s.Name, cfg.Substrate, s.Substrates)
	}
	seed := s.Seed
	if cfg.Seed != 0 {
		seed = cfg.Seed
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	res := &Result{Scenario: s.Name, Substrate: cfg.Substrate, Seed: seed}
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		res.Failures = append(res.Failures,
			fmt.Sprintf("scenario %s [substrate %s, seed %d]: %s", s.Name, cfg.Substrate, seed, msg))
	}

	topo, err := buildTopology(s)
	if err != nil {
		return nil, err
	}
	if cfg.Substrate == "dist" && cfg.ControlPlaneDir == "" && usesCoordinatorFaults(s) {
		dir, err := os.MkdirTemp("", "seep-controlplane-*")
		if err != nil {
			return nil, fmt.Errorf("scenario %s: control-plane dir: %v", s.Name, err)
		}
		defer os.RemoveAll(dir)
		cfg.ControlPlaneDir = dir
	}
	rt, err := runtimeFor(s, cfg, seed)
	if err != nil {
		return nil, err
	}
	job, err := rt.Deploy(topo)
	if err != nil {
		return nil, fmt.Errorf("scenario %s [substrate %s, seed %d]: deploy: %v", s.Name, cfg.Substrate, seed, err)
	}
	defer job.Stop()
	job.Start()
	logf("scenario %s: substrate=%s seed=%d duration=%v events=%d", s.Name, cfg.Substrate, seed, s.Duration, len(s.Events))

	// The global tuple index threads the initial injection and every
	// burst onto one deterministic sequence.
	var injected uint64
	if w := s.Workload; w != nil {
		if err := job.InjectBatch(seep.OpID(w.Source), w.Tuples, w.genFrom(seed, 0)); err != nil {
			return nil, fmt.Errorf("scenario %s [substrate %s, seed %d]: inject: %v", s.Name, cfg.Substrate, seed, err)
		}
		injected = uint64(w.Tuples)
	}

	// Drive the event script: sort by time, advance the job to each
	// event's instant, apply it, then run out the remaining duration.
	events := make([]Event, len(s.Events))
	copy(events, s.Events)
	if w := s.Workload; w != nil && w.SustainedOverload > 0 {
		// sustained-overload: re-inject the base workload at evenly
		// spaced instants so the pipeline stays saturated for the whole
		// span. The synthesized bursts thread the same tuple sequence as
		// scripted ones, so the exact-counts oracle still holds.
		step := s.Duration / time.Duration(w.SustainedOverload+1)
		for i := 1; i <= w.SustainedOverload; i++ {
			events = append(events, Event{
				At:     step * time.Duration(i),
				Kind:   "inject-burst",
				Op:     w.Source,
				Tuples: w.Tuples,
			})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	now := time.Duration(0)
	partitioned := false
	for i := range events {
		ev := events[i]
		if ev.At > now {
			if partitioned && cfg.Substrate != "sim" {
				// A partitioned link black-holes all traffic, so the job
				// looks quiescent immediately — but heartbeat starvation
				// needs the scripted span of real time to trip the failure
				// detector. Hold wall-clock instead of quiescing early.
				time.Sleep(ev.At - now)
			} else {
				job.Run(ev.At - now)
			}
			now = ev.At
		}
		logf("scenario %s: t=%v %s op=%s", s.Name, now, ev.Kind, ev.Op)
		if err := applyEvent(job, s, ev, seed, &injected); err != nil {
			fail("event %s at %v: %v", ev.Kind, ev.At, err)
		}
		switch ev.Kind {
		case "partition-link":
			partitioned = true
		case "heal-links":
			partitioned = false
		}
	}
	if s.Duration > now {
		job.Run(s.Duration - now)
	}

	res.Metrics = job.MetricsSnapshot()
	checkAssertions(s, job, res, seed, injected, fail)
	return res, nil
}

// runtimeFor builds the substrate runtime with the scenario's options.
// Options the substrate does not accept are simply not passed — the
// scenario declares intent, the executor translates it per substrate
// (the public API still rejects misuse loudly for direct callers).
func runtimeFor(s *Scenario, cfg RunConfig, seed int64) (seep.Runtime, error) {
	o := s.Options
	opts := []seep.Option{seep.WithSeed(seed)}
	if o.CheckpointIntervalSet {
		// Simulated rejects an explicit 0 (it cannot disable checkpointing
		// that way); keep its default instead.
		if !(cfg.Substrate == "sim" && o.CheckpointInterval == 0) {
			opts = append(opts, seep.WithCheckpointInterval(o.CheckpointInterval))
		}
	}
	if o.DetectDelay > 0 {
		opts = append(opts, seep.WithDetectDelay(o.DetectDelay))
	}
	if o.TimerInterval > 0 {
		opts = append(opts, seep.WithTimerInterval(o.TimerInterval))
	}
	if o.RecoveryParallelism > 0 {
		opts = append(opts, seep.WithRecoveryParallelism(o.RecoveryParallelism))
	}
	if o.BatchSize > 0 && cfg.Substrate != "sim" {
		opts = append(opts, seep.WithBatching(o.BatchSize, o.BatchLinger))
	}
	if o.QueueBound > 0 && cfg.Substrate != "sim" {
		opts = append(opts, seep.WithQueueBound(o.QueueBound))
	}
	if o.MemoryLimitBytes > 0 && cfg.Substrate != "sim" {
		opts = append(opts, seep.WithMemoryLimit(o.MemoryLimitBytes))
	}
	if o.DeltaCheckpoints {
		opts = append(opts, seep.WithIncrementalCheckpoints())
	}
	if o.VMPool != nil && cfg.Substrate == "sim" {
		opts = append(opts, seep.WithVMPool(seep.PoolConfig{
			Size:                 o.VMPool.Size,
			HandoffDelayMillis:   o.VMPool.Handoff.Milliseconds(),
			ProvisionDelayMillis: o.VMPool.Provision.Milliseconds(),
		}))
	}
	if o.Policy != nil {
		opts = append(opts, seep.WithPolicy(seep.Policy{
			Threshold:          o.Policy.Threshold,
			ConsecutiveReports: o.Policy.ConsecutiveReports,
			ReportEveryMillis:  o.Policy.ReportEvery.Milliseconds(),
		}))
		if o.ScaleIn != nil {
			opts = append(opts, seep.WithScaleIn(seep.ScaleInPolicy{
				LowWatermark:       o.ScaleIn.LowWatermark,
				ConsecutiveReports: o.ScaleIn.ConsecutiveReports,
				MinPartitions:      o.ScaleIn.MinPartitions,
			}))
		}
	}
	switch cfg.Substrate {
	case "sim":
		return seep.Simulated(opts...), nil
	case "live":
		return seep.Live(opts...), nil
	case "dist":
		if cfg.ControlPlaneDir != "" {
			opts = append(opts, seep.WithControlPlaneDir(cfg.ControlPlaneDir))
		}
		if len(cfg.WorkerAddrs) > 0 {
			name := cfg.TopologyName
			if name == "" {
				name = s.Name
			}
			opts = append(opts, seep.WithWorkerAddrs(cfg.WorkerAddrs...), seep.WithTopologyName(name))
		} else if o.Workers > 0 {
			opts = append(opts, seep.WithWorkers(o.Workers))
		}
		return seep.Distributed(opts...), nil
	}
	return nil, fmt.Errorf("unknown substrate %q (want sim, live or dist)", cfg.Substrate)
}

// usesCoordinatorFaults reports whether the event script touches the
// coordinator's lifecycle (and therefore needs a control-plane journal).
func usesCoordinatorFaults(s *Scenario) bool {
	for _, ev := range s.Events {
		if ev.Kind == "kill-coordinator" || ev.Kind == "restart-coordinator" {
			return true
		}
	}
	return false
}

// applyEvent performs one scripted action against the running job.
func applyEvent(job seep.Job, s *Scenario, ev Event, seed int64, injected *uint64) error {
	instanceAt := func(op string, idx int) (seep.InstanceID, error) {
		insts := job.Instances(seep.OpID(op))
		if idx >= len(insts) {
			return seep.InstanceID{}, fmt.Errorf("operator %q has %d instances, wanted index %d", op, len(insts), idx)
		}
		return insts[idx], nil
	}
	switch ev.Kind {
	case "kill-worker", "fail-instance":
		inst, err := instanceAt(ev.Op, ev.Partition)
		if err != nil {
			return err
		}
		return job.Fail(inst)
	case "scale-out":
		inst, err := instanceAt(ev.Op, ev.Partition)
		if err != nil {
			return err
		}
		pi := ev.Pi
		if pi == 0 {
			pi = 2
		}
		return job.ScaleOut(inst, pi)
	case "scale-in":
		n := ev.Merge
		if n == 0 {
			n = 2
		}
		insts := job.Instances(seep.OpID(ev.Op))
		if len(insts) < n {
			return fmt.Errorf("operator %q has %d instances, cannot merge %d", ev.Op, len(insts), n)
		}
		return job.ScaleIn(insts[:n])
	case "slow-link":
		lf, ok := job.(seep.LinkFaulter)
		if !ok {
			return fmt.Errorf("substrate does not support link faults")
		}
		return lf.SlowLink(seep.OpID(ev.Op), ev.Delay)
	case "partition-link":
		lf, ok := job.(seep.LinkFaulter)
		if !ok {
			return fmt.Errorf("substrate does not support link faults")
		}
		return lf.PartitionLink(seep.OpID(ev.Op))
	case "heal-links":
		lf, ok := job.(seep.LinkFaulter)
		if !ok {
			return fmt.Errorf("substrate does not support link faults")
		}
		lf.HealLinks()
		return nil
	case "kill-coordinator":
		cf, ok := job.(seep.CoordinatorFaulter)
		if !ok {
			return fmt.Errorf("substrate does not support coordinator faults")
		}
		return cf.KillCoordinator()
	case "restart-coordinator":
		cf, ok := job.(seep.CoordinatorFaulter)
		if !ok {
			return fmt.Errorf("substrate does not support coordinator faults")
		}
		return cf.RestartCoordinator()
	case "inject-burst":
		w := s.Workload
		if w == nil {
			return fmt.Errorf("inject-burst without a workload")
		}
		if err := job.InjectBatch(seep.OpID(w.Source), ev.Tuples, w.genFrom(seed, *injected)); err != nil {
			return err
		}
		*injected += uint64(ev.Tuples)
		return nil
	}
	return fmt.Errorf("unknown event kind %q", ev.Kind)
}

// counted is the managed-state accessor exact-counts assertions need;
// WordCounter implements it.
type counted interface{ Counts() map[string]int64 }

// checkAssertions evaluates the assertions block against the final job
// state and metrics.
func checkAssertions(s *Scenario, job seep.Job, res *Result, seed int64, injected uint64, fail func(string, ...any)) {
	m := res.Metrics

	if ec := s.Assertions.ExactCounts; ec != nil {
		expected := s.Workload.expectedCounts(seed, int(injected))
		got := make(map[string]int64)
		for _, inst := range job.Instances(seep.OpID(ec.Op)) {
			op, ok := job.OperatorOf(inst).(counted)
			if !ok {
				fail("exact-counts: operator %q instance %v does not expose Counts() (got %T)", ec.Op, inst, job.OperatorOf(inst))
				break
			}
			for k, v := range op.Counts() {
				got[k] += v
			}
		}
		res.Counts, res.Expected = got, expected
		misses := 0
		for k, want := range expected {
			if got[k] != want {
				misses++
				if misses <= 5 {
					fail("exact-counts: %s[%q] = %d, want %d", ec.Op, k, got[k], want)
				}
			}
		}
		for k := range got {
			if _, ok := expected[k]; !ok {
				misses++
				if misses <= 5 {
					fail("exact-counts: unexpected key %q = %d", k, got[k])
				}
			}
		}
		if misses > 5 {
			fail("exact-counts: ... and %d more mismatched keys", misses-5)
		}
	}

	if r := s.Assertions.Recovery; r != nil {
		n := len(m.Recoveries)
		if n < r.Min {
			fail("recovery: %d completed recoveries, want at least %d", n, r.Min)
		}
		if r.Max >= 0 && n > r.Max {
			fail("recovery: %d completed recoveries, want at most %d", n, r.Max)
		}
		if r.Deadline > 0 {
			for _, rec := range m.Recoveries {
				if d := time.Duration(rec.CompletedAt-rec.StartedAt) * time.Millisecond; d > r.Deadline {
					fail("recovery: %v took %v, deadline %v", rec.Victim, d, r.Deadline)
				}
			}
		}
	}

	if sl := s.Assertions.SinkLatency; sl != nil {
		if m.Latency.Count == 0 {
			fail("sink-latency: no latency samples reached sink %q", sl.Sink)
		}
		if max := sl.Max; max > 0 && m.Latency.Max > max.Milliseconds() {
			fail("sink-latency: max %dms exceeds bound %v", m.Latency.Max, max)
		}
		if p99 := sl.P99; p99 > 0 && m.Latency.P99 > p99.Milliseconds() {
			fail("sink-latency: p99 %dms exceeds bound %v", m.Latency.P99, p99)
		}
	}

	if ml := s.Assertions.MaxLatency; ml != nil {
		if m.Latency.Count == 0 {
			fail("max-latency: no latency samples reached sink %q", ml.Sink)
		} else if m.Latency.Max > ml.Ceiling.Milliseconds() {
			fail("max-latency: a record took %dms through sink %q, hard ceiling %v", m.Latency.Max, ml.Sink, ml.Ceiling)
		}
	}

	if qd := s.Assertions.QueueDepth; qd != nil {
		if got := int64(m.Backpressure.PeakQueueDepth); got > qd.Max {
			fail("queue-depth: peak input queue reached %d batches, bound %d", got, qd.Max)
		}
	}

	if sk := s.Assertions.SpilledKeys; sk != nil {
		got := int64(m.Backpressure.Spill.SpilledTotal)
		if got < sk.Min {
			fail("spilled-keys: %d keys spilled, want at least %d (memory ceiling never engaged?)", got, sk.Min)
		}
		if sk.Max >= 0 && got > sk.Max {
			fail("spilled-keys: %d keys spilled, want at most %d", got, sk.Max)
		}
	}

	for _, c := range s.Assertions.Counters {
		var v int64
		switch c.Name {
		case "sink-tuples":
			v = int64(m.SinkTuples)
		case "duplicates-dropped":
			v = int64(m.DuplicatesDropped)
		case "recoveries":
			v = int64(len(m.Recoveries))
		case "merges":
			v = int64(m.Merges)
		case "checkpoints":
			v = int64(m.Checkpoints.Fulls + m.Checkpoints.Deltas)
		}
		if v < c.Min {
			fail("counter %s = %d, want at least %d", c.Name, v, c.Min)
		}
		if c.Max >= 0 && v > c.Max {
			fail("counter %s = %d, want at most %d", c.Name, v, c.Max)
		}
	}

	for op, want := range s.Assertions.Parallelism {
		if got := m.Parallelism[seep.OpID(op)]; got != want {
			fail("parallelism: %s = %d, want %d", op, got, want)
		}
	}

	if !s.Assertions.AllowErrors && len(m.Errors) > 0 {
		fail("job reported errors: %v", m.Errors)
	}
}
