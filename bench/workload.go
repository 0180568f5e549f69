package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"seep"
)

// spec describes one workload. Tuple counts and times are for a run of
// refSeconds; run scales them with -seconds.
type spec struct {
	name string
	why  string

	dist       bool
	workers    int
	checkpoint time.Duration
	detect     time.Duration // failure-detection horizon of the Distributed runtime

	keys int // distinct keys held in cnt's state, all preloaded
	warm int // set-up tuples, when more than one per key
	hot  int // keys the timed phases draw from (0 = all)

	window int           // tuples per closed-loop round: what the one client keeps in flight
	rate   int           // open-loop tuples per second
	tick   time.Duration // open-loop schedule step
	grace  time.Duration // how long after the last tick a tuple may still arrive

	transitions bool // fail cnt at failAt and scale it out at scaleAt of the open loop
}

// warmFor is how long a run sets up without timing it. For up to a
// second after it starts, a process sets up 1.5-2 times slower than
// later (its heap is still being faulted in), on some starts and not on
// others: timed from the start, the median of a run's set-ups read 70 or
// 130 ms on steady-dist, and the median of ten runs moved by a third.
const warmFor = 1500 * time.Millisecond

const (
	refSeconds = 24   // the -seconds the workloads are sized for, and BENCHMARK.json's run_seconds
	openShare  = 0.75 // share of -seconds the open loop runs; closed-loop rounds fill the rest
	setups     = 5    // timed deploy+start+preload cycles; the median is reported
	failAt     = 0.28 // of the open loop
	scaleAt    = 0.62
)

var specs = []*spec{
	{
		name: "steady-live",
		why:  "single process: engine, state and operator do all the work, transport/wirecodec/dist none, so every wire optimisation must leave it unchanged",
		keys: 100_000, warm: 1_000_000, checkpoint: 500 * time.Millisecond,
		window: 32_768, rate: 50_000, tick: 2 * time.Millisecond, grace: 5 * time.Second,
	},
	{
		name: "steady-dist",
		why:  "same job and rate on 3 loopback workers: tuples cross real sockets, so transport, wirecodec and the dist links do most of the work",
		dist: true, workers: 3, keys: 100_000, checkpoint: 500 * time.Millisecond, detect: 2 * time.Second,
		window: 1024, rate: 50_000, tick: 2 * time.Millisecond, grace: 5 * time.Second,
	},
	{
		name: "bigstate-dist",
		why:  "200k keys, 1 s full checkpoints, tuple path under 5 % of capacity: state snapshot/encode, checkpoint shipping and the backup store do the work (Fig 14)",
		dist: true, workers: 3, keys: 200_000, hot: 2_000, checkpoint: time.Second, detect: 2 * time.Second,
		window: 1024, rate: 20_000, tick: 5 * time.Millisecond, grace: 5 * time.Second,
	},
	{
		name: "transitions-dist",
		why:  "one failure and one scale-out under load on 4 workers: coordinator, planner, journal, restore/partition and buffer replay do the work (Figs 11-13)",
		dist: true, workers: 4, keys: 100_000, checkpoint: 500 * time.Millisecond, detect: 500 * time.Millisecond,
		window: 1024, rate: 10_000, tick: 10 * time.Millisecond, grace: 10 * time.Second,
		transitions: true,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

func (s *spec) preload() int {
	if s.warm > s.keys {
		return s.warm
	}
	return s.keys
}

func (s *spec) timedKeys() int {
	if s.hot > 0 {
		return s.hot
	}
	return s.keys
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run of a workload measured. The child
// process rewrites it to its report file after every phase, so a parent
// that has to kill a wedged child still has the partial numbers.
type outcome struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Done      bool              `json:"done"` // false: the child never finished
	Attempted int64             `json:"attempted"`
	Arrived   int64             `json:"arrived"` // tuples at the sink when the outcome was last saved
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	// Detail holds what is printed and has no bound: the issue's own
	// lat_p99_ms and peak_rss_mb, and the sample counts behind the numbers.
	Detail map[string]metric `json:"detail"`
	// Layers holds counter deltas over the timed phases and the dist.*
	// timings; the traced run adds the probe results.
	Layers map[string]metric `json:"per_layer,omitempty"`
	Notes  []string          `json:"notes,omitempty"`
}

// drainNs is the closed loop's wall time per tuple, the figure the layer
// probes are reconciled against.
func (o *outcome) drainNs() float64 { return 1e9 / o.EndToEnd["closed_loop_tuples_per_s"].Value }

// failedShare is failed over attempted: tuples not at the sink by the
// deadline or seen twice, the difference between cnt's state and the
// reference, transitions that returned an error and job errors, over
// tuples sent plus transitions attempted.
func (o *outcome) failedShare() float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Failed) / float64(o.Attempted)
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// rusage reads this process's resource usage (zero when the call fails,
// which on Linux it does not).
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // the zero value stands in for a failure
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB is the Go heap still in use after a forced collection: what
// the job retains (state, backups, buffers), not the garbage in flight,
// which makes the peak RSS of a run swing by a third. A checkpoint in
// transit is live for a moment too, so the smallest of a few samples
// taken across a checkpoint interval is reported.
func liveHeapMiB() float64 {
	least := math.MaxFloat64
	for i := 0; i < 5; i++ {
		if i > 0 {
			time.Sleep(130 * time.Millisecond)
		}
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		least = min(least, float64(mem.HeapAlloc)/(1<<20))
	}
	return least
}

func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// run executes one workload end to end: set-up (several times), the
// open loop, the closed-loop rounds, and the check against the
// reference. The open loop comes first so that it, and the transitions
// in it, meet a system that no flood has touched. save, when set, is
// called with the partial outcome after each phase.
func run(s *spec, seed int64, seconds float64, tr *tracer, workDir string, save func(*outcome)) (*outcome, error) {
	out := &outcome{
		Workload: s.name, Seed: seed, Seconds: seconds,
		EndToEnd: map[string]metric{}, Detail: map[string]metric{}, Layers: map[string]metric{},
	}
	var d *deployed
	var saved time.Time
	var transitionsTried int64
	checkpoint := func() {
		if d != nil {
			out.Attempted, out.Arrived = d.sent+transitionsTried, d.sink.arrived.Load()
		}
		if save != nil {
			save(out)
		}
		saved = time.Now()
	}
	defer func() {
		if !out.Done { // an error return: leave the counts as they stand now
			checkpoint()
		}
	}()
	// progress keeps the saved outcome at most a second stale while a
	// phase runs, for the parent that may have to kill this process.
	progress := func() {
		if time.Since(saved) > time.Second {
			checkpoint()
		}
	}

	// Set-up, repeated: those begun after the warm-up are timed, and only
	// the last job is kept.
	var setupTimes, deployTimes []float64
	began := time.Now()
	for i := 0; len(setupTimes) < setups; i++ {
		dir := filepath.Join(workDir, fmt.Sprintf("cp-%s-%d-%d", s.name, os.Getpid(), i))
		runtime.GC() // the job before this one is garbage now: collect it off the clock
		t0 := time.Now()
		next, deployTook, err := deploy(s, seed, dir, tr)
		if err != nil {
			return out, err
		}
		if t0.Sub(began) >= warmFor {
			setupTimes = append(setupTimes, time.Since(t0).Seconds())
			deployTimes = append(deployTimes, float64(deployTook.Microseconds())/1e3)
		}
		defer os.RemoveAll(dir) // the journal, when the workload keeps one
		if len(setupTimes) < setups {
			next.job.Stop()
			continue
		}
		d = next
	}
	stop := sync.OnceFunc(d.job.Stop)
	defer stop()
	out.EndToEnd["setup_s"] = metric{median(setupTimes), "s"}
	out.Layers["dist.deploy_ms"] = metric{median(deployTimes), "ms"}
	segs := []segment{{0, s.keys, d.sent}}
	checkpoint()

	pollDone := make(chan struct{})
	pollStop := make(chan struct{})
	if tr != nil {
		go func() {
			defer close(pollDone)
			pollMetrics(d.job, tr, pollStop)
		}()
	} else {
		close(pollDone)
	}
	stopPoll := sync.OnceFunc(func() {
		close(pollStop)
		<-pollDone
	})
	defer stopPoll()

	runtime.GC()
	before := d.job.MetricsSnapshot()
	wall0 := time.Now()
	timedFrom := d.sink.arrived.Load()
	keys := newKeygen(seed, s.timedKeys())

	// Open loop: a fixed schedule that never waits for the system.
	tr.nextPhase()
	span := time.Duration(float64(time.Second) * seconds * openShare)
	cpu0 := cpuTime()
	open, err := openLoop(s, d, keys, span, tr, progress)
	cpu := cpuTime() - cpu0
	transitionsTried = int64(open.trans.attempted)
	segs = append(segs, segment{1, s.timedKeys(), open.sent})
	if err != nil {
		return out, err
	}
	open.report(out, s, d)
	// The open loop's work is fixed by the schedule, so CPU per tuple
	// compares across runs; the closed loop's tuple count varies.
	out.EndToEnd["cpu_ns_per_tuple"] = metric{float64(cpu.Nanoseconds()) / float64(max(open.arrived, 1)), "ns"}
	out.EndToEnd["live_heap_mb"] = metric{liveHeapMiB(), "MiB"}
	checkpoint()

	// Closed loop: one client injects a round and waits for all of it.
	tr.nextPhase()
	payload := any(int64(-1))
	gen := func(uint64) (seep.Key, any) { return keys.next(), payload }
	var rates []float64
	closedFrom := time.Now()
	for budget := time.Duration((1 - openShare) * seconds * float64(time.Second)); time.Since(closedFrom) < budget; {
		t0 := time.Now()
		sp := tr.begin("bench.inject", 0)
		err := d.job.InjectBatch("src", s.window, gen)
		tr.endInject(sp, 0, s.window)
		if err != nil {
			return out, fmt.Errorf("round %d: %w", len(rates), err)
		}
		d.sent += int64(s.window)
		sp = tr.begin("bench.sink_wait", 0)
		ok := d.sink.await(d.sent, time.Now().Add(30*time.Second))
		tr.end(sp)
		if !ok {
			out.Failed += d.sent - d.sink.arrived.Load()
			return out, fmt.Errorf("round %d: %d of %d tuples reached the sink in 30 s", len(rates), d.sink.arrived.Load(), d.sent)
		}
		rates = append(rates, float64(s.window)/time.Since(t0).Seconds())
		progress()
	}
	// The upper quartile: the rate of rounds that no checkpoint, collection
	// or link stall disturbed. The median slides with the share of rounds
	// a checkpoint hits; what the disturbances cost shows in
	// over_limit_share and lat_p99_typical_ms instead.
	segs = append(segs, segment{1, s.timedKeys(), int64(s.window) * int64(len(rates))})
	sort.Float64s(rates)
	out.EndToEnd["closed_loop_tuples_per_s"] = metric{rates[len(rates)*3/4], "tuples/s"}
	out.Detail["closed_loop_rounds"] = metric{float64(len(rates)), "count"}

	wall := time.Since(wall0)
	arrived := d.sink.arrived.Load()
	after := d.job.MetricsSnapshot()
	stopPoll()
	delivered := max(arrived-timedFrom, 1)
	if s.transitions {
		open.trans.report(out, open.start.Sub(d.started), after)
	}
	counterDeltas(out, before, after, delivered, wall)
	checkpoint()

	// Reference check.
	if missing := d.sent - arrived; missing != 0 { // negative: the sink saw duplicates
		out.Failed += abs64(missing)
		out.note("sink saw %d tuples, %d were sent", arrived, d.sent)
	}
	got, err := d.counts()
	if err != nil {
		return out, err
	}
	for _, e := range after.Errors {
		out.Failed++
		out.note("job error: %s", e)
	}
	stop()
	out.Detail["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
	t0 := time.Now()
	want := oracle(seed, segs)
	out.Layers["bench.ref_single_thread_ns_per_tuple"] = metric{float64(time.Since(t0).Nanoseconds()) / float64(d.sent), "ns"}
	if diff := stateDiff(got, want); diff != 0 {
		out.Failed += diff
		out.note("cnt's state differs from the reference by %d over %d keys", diff, len(want))
	}
	out.Failed += int64(open.trans.errors)
	out.Done = true
	checkpoint()
	return out, nil
}

// openResult is what one open loop measured.
type openResult struct {
	start   time.Time
	span    time.Duration // length of the schedule
	sent    int64         // tuples the schedule injected
	arrived int64         // of those, at the sink by the deadline
	took    time.Duration // first tick to last
	blocked time.Duration // spent inside InjectBatch
	lateMax time.Duration // worst start of a tick behind its due time
	backlog int64         // sent and not yet arrived when the last tick was sent
	trans   transitions
}

// openLoop injects s.rate tuples per second on a fixed schedule for
// span, whatever the system does: a blocked InjectBatch makes the next
// ticks late, and latency is counted from when a tuple was due. It then
// waits until the deadline for stragglers.
func openLoop(s *spec, d *deployed, keys *keygen, span time.Duration, tr *tracer, progress func()) (*openResult, error) {
	ticks := int(span / s.tick)
	perTick := int(float64(s.rate) * s.tick.Seconds())
	before := d.sink.arrived.Load()
	o := &openResult{start: time.Now(), span: span}
	if s.transitions {
		d.sink.beginOpen(o.start, span, at(span, failAt), at(span, scaleAt))
	} else {
		d.sink.beginOpen(o.start, span)
	}
	var transDone sync.WaitGroup
	if s.transitions {
		transDone.Add(1)
		go func() {
			defer transDone.Done()
			o.trans.drive(d.job, o.start, span, tr)
		}()
	}
	defer transDone.Wait()
	defer d.sink.open.Store(false)

	for i := 0; i < ticks; i++ {
		due := time.Duration(i) * s.tick
		if wait := due - time.Since(o.start); wait > 0 {
			time.Sleep(wait)
		}
		boxed := any(int64(due)) // one box per tick: its tuples share a due time
		t0 := time.Now()
		if late := t0.Sub(o.start) - due; late > o.lateMax {
			o.lateMax = late
		}
		sp := tr.begin("bench.inject", 0)
		err := d.job.InjectBatch("src", perTick, func(uint64) (seep.Key, any) { return keys.next(), boxed })
		tr.endInject(sp, due, perTick)
		o.blocked += time.Since(t0)
		if err != nil {
			return o, fmt.Errorf("open loop tick %d: %w", i, err)
		}
		d.sent += int64(perTick)
		o.sent += int64(perTick)
		progress()
	}
	o.took = time.Since(o.start)
	o.backlog = d.sent - d.sink.arrived.Load()

	// Stragglers: a tuple not at the sink by the deadline is lost.
	sp := tr.begin("bench.sink_wait", 0)
	d.sink.await(d.sent, o.start.Add(span+s.grace))
	tr.end(sp)
	o.arrived = d.sink.arrived.Load() - before
	return o, nil
}

func at(span time.Duration, share float64) time.Duration {
	return time.Duration(float64(span) * share)
}

// report turns the sink's windows into the latency metrics.
func (o *openResult) report(out *outcome, s *spec, d *deployed) {
	d.sink.mu.Lock()
	wins := d.sink.wins
	episodes := d.sink.episodes
	d.sink.mu.Unlock()
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var lat hist
	var late int64
	var p99s []float64
	for i := range wins {
		lat.merge(&wins[i].lat)
		late += wins[i].late
		p99s = append(p99s, ms(wins[i].lat.quantile(0.99)))
	}
	never := max(o.sent-o.arrived, 0)
	out.EndToEnd["lat_p50_ms"] = metric{ms(lat.quantile(0.50)), "ms"}
	// One link stall of half a second moves the 99th percentile of the
	// whole loop severalfold; the seconds' own 99th percentiles, with the
	// highest and lowest sixth set aside, say what the tail usually is.
	sort.Float64s(p99s)
	cut := len(p99s) / 6
	out.EndToEnd["lat_p99_typical_ms"] = metric{mean(p99s[cut : len(p99s)-cut]), "ms"}
	out.EndToEnd["over_limit_share"] = metric{float64(late+never) / float64(o.sent), "ratio"}
	out.Detail["lat_p99_ms"] = metric{ms(lat.quantile(0.99)), "ms"}
	out.Detail["lat_samples"] = metric{float64(lat.n), "count"}
	if top := topPercentile(lat.n); top > 0 {
		out.Detail["lat_top_percentile"] = metric{top * 100, "%"}
		out.Detail["lat_top_ms"] = metric{ms(lat.quantile(top)), "ms"}
	}
	out.Detail["lat_max_ms"] = metric{ms(lat.max), "ms"}
	if len(episodes) == 2 {
		perTick := int64(float64(s.rate) * s.tick.Seconds())
		deadline := int64(o.span + s.grace)
		out.EndToEnd["recover_outage_ms"] = metric{ms(episodes[0].outage(episodes[1].from, s.tick, perTick, deadline)), "ms"}
		end := int64(o.span/s.tick) * int64(s.tick) // the schedule's last step is due before this
		out.EndToEnd["scaleout_outage_ms"] = metric{ms(episodes[1].outage(end, s.tick, perTick, deadline)), "ms"}
	}
	for _, d := range endToEnd { // what the driver is to get per layer
		if m, ok := out.EndToEnd[d.name]; ok && d.layer != "" {
			out.Layers[d.layer] = m
		}
	}
	out.Layers["bench.gen_late_max_ms"] = metric{ms(int64(o.lateMax)), "ms"}
	out.Layers["bench.inject_blocked_share"] = metric{o.blocked.Seconds() / o.took.Seconds(), "ratio"}
	out.Layers["bench.backlog_end_tuples"] = metric{float64(o.backlog), "count"}
	out.Layers["bench.samples"] = metric{float64(lat.n), "count"}
}

// transitions drives and times the failure and the scale-out of
// transitions-dist.
type transitions struct {
	attempted, errors int
	notes             []string
	failCall          time.Duration // when Fail was called, since the open loop began
	scaleTook         time.Duration // how long the ScaleOut call blocked
}

func (t *transitions) drive(job seep.Job, start time.Time, span time.Duration, tr *tracer) {
	call := func(name string, share float64, f func(seep.InstanceID) error) (called, took time.Duration) {
		time.Sleep(time.Until(start.Add(at(span, share))))
		t.attempted++
		insts := job.Instances("cnt")
		if len(insts) == 0 {
			t.errors++
			t.notes = append(t.notes, name+": no live instance of cnt")
			return time.Since(start), 0
		}
		sp := tr.begin(name, 0)
		t0 := time.Now()
		err := f(insts[0])
		took = time.Since(t0)
		tr.end(sp)
		if err != nil {
			t.errors++
			t.notes = append(t.notes, fmt.Sprintf("%s: %v", name, err))
		}
		return t0.Sub(start), took
	}
	t.failCall, _ = call("bench.fail_call", failAt, job.Fail)
	_, t.scaleTook = call("bench.scaleout_call", scaleAt, func(inst seep.InstanceID) error { return job.ScaleOut(inst, 2) })
}

// report turns the call times and the coordinator's recovery records
// into the dist.* numbers. Records are stamped in ms since Job.Start;
// openAt is when the open loop began on that clock.
func (t *transitions) report(out *outcome, openAt time.Duration, m seep.Metrics) {
	out.Notes = append(out.Notes, t.notes...)
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	out.Layers["dist.scaleout_call_ms"] = metric{ms(t.scaleTook), "ms"}
	for _, r := range m.Recoveries {
		took := float64(r.CompletedAt - r.StartedAt)
		if r.Failure {
			out.Layers["dist.detect_ms"] = metric{float64(r.StartedAt) - ms(openAt+t.failCall), "ms"}
			out.Layers["dist.recover_plan_ms"] = metric{took, "ms"}
			out.Layers["dist.replayed_tuples"] = metric{float64(r.ReplayedTuples), "count"}
		} else if !r.Merge {
			out.Layers["dist.scaleout_plan_ms"] = metric{took, "ms"}
		}
	}
}

// counterDeltas records what the job's own counters moved by over the
// timed phases.
func counterDeltas(out *outcome, a, b seep.Metrics, delivered int64, wall time.Duration) {
	count := func(name string, v uint64) { out.Layers[name] = metric{float64(v), "count"} }
	tr := func(f func(seep.TransportStats) uint64) uint64 { return f(b.Transport) - f(a.Transport) }
	count("engine.credit_stalls", b.Backpressure.CreditStalls-a.Backpressure.CreditStalls)
	count("engine.peak_queue_depth", uint64(b.Backpressure.PeakQueueDepth))
	count("engine.dup_dropped", b.DuplicatesDropped-a.DuplicatesDropped)
	out.Layers["transport.bytes_per_tuple"] = metric{float64(tr(func(s seep.TransportStats) uint64 { return s.BytesSent })) / float64(delivered), "B"}
	out.Layers["transport.frames_per_ktuple"] = metric{1e3 * float64(tr(func(s seep.TransportStats) uint64 { return s.FramesSent })) / float64(delivered), "count"}
	count("transport.credit_stalls", tr(func(s seep.TransportStats) uint64 { return s.CreditStalls }))
	count("transport.reconnects", tr(func(s seep.TransportStats) uint64 { return s.Reconnects }))
	count("transport.heartbeat_misses", tr(func(s seep.TransportStats) uint64 { return s.HeartbeatMisses }))
	count("transport.corrupt_frames", tr(func(s seep.TransportStats) uint64 { return s.CorruptFrames }))
	count("core.ckpt_fulls", b.Checkpoints.Fulls-a.Checkpoints.Fulls)
	count("core.ckpt_deltas", b.Checkpoints.Deltas-a.Checkpoints.Deltas)
	out.Layers["core.ckpt_full_bytes_per_s"] = metric{float64(b.Checkpoints.FullBytes-a.Checkpoints.FullBytes) / wall.Seconds(), "B/s"}
	count("controlplane.journal_appends", b.ControlPlane.JournalAppends-a.ControlPlane.JournalAppends)
	out.Layers["controlplane.fsync_max_us"] = metric{float64(b.ControlPlane.FsyncMaxMicros), "us"}
}

// pollMetrics samples the job's counters every 250 ms into the trace,
// as deltas, until stop closes.
func pollMetrics(job seep.Job, tr *tracer, stop <-chan struct{}) {
	flat := func(m seep.Metrics) map[string]int64 {
		return map[string]int64{
			"sink_tuples":       int64(m.SinkTuples),
			"dup_dropped":       int64(m.DuplicatesDropped),
			"ckpt_fulls":        int64(m.Checkpoints.Fulls),
			"ckpt_full_bytes":   int64(m.Checkpoints.FullBytes),
			"bytes_sent":        int64(m.Transport.BytesSent),
			"frames_sent":       int64(m.Transport.FramesSent),
			"heartbeat_misses":  int64(m.Transport.HeartbeatMisses),
			"corrupt_frames":    int64(m.Transport.CorruptFrames),
			"reconnects":        int64(m.Transport.Reconnects),
			"transport_stalls":  int64(m.Transport.CreditStalls),
			"credit_stalls":     int64(m.Backpressure.CreditStalls),
			"queue_depth":       int64(m.Backpressure.QueueDepth),
			"journal_appends":   int64(m.ControlPlane.JournalAppends),
			"recoveries_logged": int64(len(m.Recoveries)),
		}
	}
	prev := flat(job.MetricsSnapshot())
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			sp := tr.begin("bench.metrics_poll", 0)
			cur := flat(job.MetricsSnapshot())
			tr.end(sp)
			deltas := make(map[string]int64, len(cur))
			for k, v := range cur {
				if k == "queue_depth" { // a gauge, not a counter
					deltas[k] = v
					continue
				}
				deltas[k] = v - prev[k]
			}
			prev = cur
			tr.addSample(deltas)
		}
	}
}
