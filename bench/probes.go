package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"seep/internal/controlplane"
	"seep/internal/core"
	"seep/internal/engine"
	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
	"seep/internal/transport"
	"seep/internal/wirecodec"
)

// tracedShare is how much of -seconds each of the two runs of a traced
// invocation gets: the layer numbers need the workload's shape, not its
// full length.
const tracedShare = 0.4

// runTraced is the separate traced run: the workload once untraced and
// once with spans recorded around every call into the system (their
// difference is the tracing overhead), then the layer probes at the
// workload's own shape, and the trace file.
func runTraced(s *spec, seed int64, seconds float64, workDir string, save func(*outcome)) (*outcome, error) {
	short := seconds * tracedShare
	ref, err := run(s, seed, short, nil, workDir, nil)
	if err != nil {
		return ref, fmt.Errorf("untraced reference run: %w", err)
	}
	tr := newTracer()
	out, err := run(s, seed, short, tr, workDir, save)
	if err != nil {
		return out, err
	}
	out.Seconds = seconds
	out.Failed += ref.Failed
	out.Attempted += ref.Attempted
	out.Notes = append(out.Notes, ref.Notes...)
	base := ref.EndToEnd["cpu_ns_per_tuple"].Value
	out.Layers["bench.trace_overhead_share"] = metric{(out.EndToEnd["cpu_ns_per_tuple"].Value - base) / base, "ratio"}

	p := &prober{s: s, seed: seed, tr: tr, out: out.Layers, dir: workDir}
	tr.nextPhase()
	p.parent = tr.begin("bench.probes", 0)
	for _, probe := range []func() error{p.state, p.operators, p.engine, p.wire, p.core, p.journal} {
		if err := probe(); err != nil {
			return out, fmt.Errorf("layer probe: %w", err)
		}
	}
	tr.end(p.parent)
	if s.dist {
		l := func(name string) float64 { return out.Layers[name].Value }
		out.Layers["dist.unattributed_ns_per_tuple"] = metric{
			out.drainNs() - l("engine.pipeline_ckpt_ns_per_tuple") - 3*l("transport.hop_ns_per_tuple"), "ns"}
	}
	out.Done = true
	if save != nil {
		save(out)
	}
	path := filepath.Join(workDir, "trace-"+s.name+".json")
	if err := tr.write(path, s.name, seed, out.Layers); err != nil {
		return out, err
	}
	out.note("trace written to %s (%d spans)", path, len(tr.spans))
	return out, nil
}

// prober runs the layer probes: each times calls into one package's
// public functions from outside, at the workload's key count, with
// int64 payloads and 256-tuple batches, under a probe.<layer>.<fn> span.
type prober struct {
	s      *spec
	seed   int64
	tr     *tracer
	parent int
	out    map[string]metric
	dir    string
}

const (
	probeOps   = 1_000_000 // per-operation probes: calls per timing
	probeFlood = 2_000_000 // pipeline probes: tuples per timing
	probeReps  = 5         // per-call probes: the median of this many
	batchSize  = 256
)

// perOp times one call of f, which performs n operations, and records
// nanoseconds per operation.
func (p *prober) perOp(name string, n int, f func()) {
	sp := p.tr.begin("probe."+name, p.parent)
	t0 := time.Now()
	f()
	took := time.Since(t0)
	p.tr.end(sp)
	p.out[name] = metric{float64(took.Nanoseconds()) / float64(n), "ns"}
}

// perCall records the median duration of the call that each prepare()
// returns, in the given unit ("ms" or "us").
func (p *prober) perCall(name, unit string, prepare func() func()) {
	var took []float64
	for i := 0; i < probeReps; i++ {
		f := prepare()
		sp := p.tr.begin("probe."+name, p.parent)
		t0 := time.Now()
		f()
		d := time.Since(t0)
		p.tr.end(sp)
		took = append(took, float64(d.Nanoseconds()))
	}
	div := 1e6
	if unit == "us" {
		div = 1e3
	}
	p.out[name] = metric{median(took) / div, unit}
}

// bufferedBetweenCheckpoints is how many tuples an output buffer holds
// when a checkpoint's acknowledgement trims it, at the workload's rate.
func (p *prober) bufferedBetweenCheckpoints() int {
	return int(float64(p.s.rate) * p.s.checkpoint.Seconds())
}

// filledStore returns a store holding one int64 per key of the workload.
func (p *prober) filledStore() (*state.Store, *state.Value[int64]) {
	st := state.NewStore()
	v := state.NewValue[int64](st, "n", state.Int64Codec{})
	keys := newKeygen(p.seed, p.s.keys)
	for i := 0; i < p.s.keys; i++ {
		v.Set(keys.next(), int64(i))
	}
	return st, v
}

var (
	cntInst  = plan.InstanceID{Op: "cnt", Part: 1}
	mapInst  = plan.InstanceID{Op: "map", Part: 1}
	sinkInst = plan.InstanceID{Op: "sink", Part: 1}
)

func (p *prober) checkpointOf(st *state.Store) (*state.Checkpoint, error) {
	kv, err := st.TakeCheckpoint()
	if err != nil {
		return nil, err
	}
	proc := state.NewProcessing(1)
	proc.KV = kv
	return &state.Checkpoint{Instance: cntInst, Seq: 1, Processing: proc, Buffer: state.NewBuffer(),
		Acks: map[plan.InstanceID]int64{mapInst: 1}}, nil
}

func (p *prober) state() error {
	st, v := p.filledStore()
	keys := newKeygen(p.seed, p.s.timedKeys())
	p.perOp("state.update_ns", probeOps, func() {
		for i := 0; i < probeOps; i++ {
			v.Update(keys.next(), inc)
		}
	})
	boxed := any(int64(1))
	p.perOp("state.buffer_append_ns_per_tuple", probeOps, func() {
		h := state.NewBuffer().Handle(sinkInst)
		for i := 0; i < probeOps; i++ {
			h.Append(stream.Tuple{TS: int64(i + 1), Key: stream.Key(i), Payload: boxed})
		}
	})
	held := p.bufferedBetweenCheckpoints()
	p.perCall("state.buffer_trim_us", "us", func() func() {
		b := state.NewBuffer()
		h := b.Handle(sinkInst)
		for i := 0; i < held; i++ {
			h.Append(stream.Tuple{TS: int64(i + 1), Key: stream.Key(i), Payload: boxed})
		}
		return func() { b.TrimInstance(sinkInst, int64(held)) }
	})
	halves := state.FullRange.SplitEven(2)
	routing, err := state.NewRoutingFromEntries([]state.RouteEntry{
		{Target: plan.InstanceID{Op: "cnt", Part: 2}, Range: halves[0]},
		{Target: plan.InstanceID{Op: "cnt", Part: 3}, Range: halves[1]},
	})
	if err != nil {
		return err
	}
	var sinkIdx int
	p.perOp("state.routing_lookup_ns", probeOps, func() {
		for i := 0; i < probeOps; i++ {
			sinkIdx += routing.LookupIndex(keys.next())
		}
	})
	_ = sinkIdx

	p.perCall("state.take_checkpoint_ms", "ms", func() func() {
		return func() { _, err = st.TakeCheckpoint() }
	})
	if err != nil {
		return err
	}
	cp, err := p.checkpointOf(st)
	if err != nil {
		return err
	}
	codec := state.GobPayloadCodec{}
	var enc *stream.Encoder
	p.perCall("state.encode_checkpoint_ms", "ms", func() func() {
		enc = stream.NewEncoder(1 << 20)
		return func() { err = state.EncodeCheckpoint(enc, cp, codec) }
	})
	if err != nil {
		return err
	}
	p.out["state.checkpoint_bytes"] = metric{float64(enc.Len()), "B"}
	p.perCall("state.decode_checkpoint_ms", "ms", func() func() {
		return func() { _, err = state.DecodeCheckpoint(stream.NewDecoder(enc.Bytes()), codec) }
	})
	if err != nil {
		return err
	}
	p.perCall("state.restore_ms", "ms", func() func() {
		fresh := state.NewStore()
		state.NewValue[int64](fresh, "n", state.Int64Codec{})
		return func() { err = fresh.Restore(cp.Processing.KV) }
	})
	if err != nil {
		return err
	}
	parts := []plan.InstanceID{{Op: "cnt", Part: 2}, {Op: "cnt", Part: 3}}
	p.perCall("state.partition_checkpoint_ms", "ms", func() func() {
		return func() { _, err = state.PartitionCheckpoint(cp, parts, halves) }
	})
	if err != nil {
		return err
	}
	dirty := min(p.bufferedBetweenCheckpoints(), p.s.timedKeys())
	p.perCall("state.take_delta_ms", "ms", func() func() {
		for i := 0; i < dirty; i++ {
			v.Update(keys.next(), inc)
		}
		return func() { _, err = st.TakeDelta(stream.NewTSVector(1), 1, 2) }
	})
	return err
}

func (p *prober) operators() error {
	c := newCounter()
	keys := newKeygen(p.seed, p.s.keys)
	boxed := any(int64(1))
	drop := func(stream.Key, any) {}
	for i := 0; i < p.s.keys; i++ {
		c.OnTuple(operator.Context{}, stream.Tuple{Key: keys.next(), Payload: boxed}, drop)
	}
	hot := newKeygen(p.seed, p.s.timedKeys())
	p.perOp("operator.counter_on_tuple_ns", probeOps, func() {
		for i := 0; i < probeOps; i++ {
			c.OnTuple(operator.Context{}, stream.Tuple{Key: hot.next(), Payload: boxed}, drop)
		}
	})
	pass := operator.Passthrough()
	p.perOp("operator.passthrough_on_tuple_ns", probeOps, func() {
		for i := 0; i < probeOps; i++ {
			pass.OnTuple(operator.Context{}, stream.Tuple{Key: stream.Key(i), Payload: boxed}, drop)
		}
	})
	return nil
}

// pipeline builds a bare engine (no Job around it) for the bench's
// topology, or for source → sink alone.
func pipeline(full bool, checkpoint time.Duration) (*engine.Engine, error) {
	q := plan.NewQuery()
	q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
	factories := map[plan.OpID]operator.Factory{}
	if full {
		q.AddOp(plan.OpSpec{ID: "map", Role: plan.RoleStateless})
		q.AddOp(plan.OpSpec{ID: "cnt", Role: plan.RoleStateful})
		factories["map"] = func() operator.Operator { return operator.Passthrough() }
		factories["cnt"] = newCounter
	}
	q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
	if full {
		q.Connect("src", "map")
		q.Connect("map", "cnt")
		q.Connect("cnt", "sink")
	} else {
		q.Connect("src", "sink")
	}
	return engine.New(engine.Config{CheckpointInterval: checkpoint, BatchSize: batchSize, BatchLinger: 2 * time.Millisecond}, q, factories)
}

// flood injects n tuples over the workload's keys and waits for all of
// them at the sink.
func flood(e *engine.Engine, keys *keygen, n int) error {
	boxed := any(int64(1))
	want := e.SinkCount.Value() + uint64(n)
	src := plan.InstanceID{Op: "src", Part: 1}
	if err := e.InjectBatch(src, n, func(uint64) (stream.Key, any) { return keys.next(), boxed }); err != nil {
		return err
	}
	for deadline := time.Now().Add(60 * time.Second); e.SinkCount.Value() < want; {
		if time.Now().After(deadline) {
			return fmt.Errorf("engine probe: %d of %d tuples reached the sink in 60 s", e.SinkCount.Value(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

func (p *prober) engine() error {
	var err error
	timeFlood := func(name string, full bool, checkpoint time.Duration, n int) *engine.Engine {
		e, nerr := pipeline(full, checkpoint)
		if nerr != nil {
			err = nerr
			return nil
		}
		e.Start()
		if full { // fill the state first, as the workload's set-up does
			if err = flood(e, newKeygen(p.seed, p.s.keys), p.s.keys); err != nil {
				e.Stop()
				return nil
			}
		}
		keys := newKeygen(p.seed, p.s.timedKeys())
		p.perOp(name, n, func() { err = flood(e, keys, n) })
		return e
	}
	for _, probe := range []struct {
		name       string
		full       bool
		checkpoint time.Duration
		n          int
	}{
		{"engine.hop_ns_per_tuple", false, 0, probeFlood},
		{"engine.pipeline_ns_per_tuple", true, 0, probeFlood},
		// Long enough to span several checkpoints.
		{"engine.pipeline_ckpt_ns_per_tuple", true, p.s.checkpoint, 4 * probeFlood},
	} {
		e := timeFlood(probe.name, probe.full, probe.checkpoint, probe.n)
		if e == nil {
			return err
		}
		if probe.checkpoint > 0 {
			p.perCall("engine.checkpoint_call_ms", "ms", func() func() {
				return func() { err = e.Checkpoint(cntInst) }
			})
		}
		e.Stop()
		if err != nil {
			return err
		}
	}
	l := func(name string) float64 { return p.out[name].Value }
	p.out["engine.unattributed_ns_per_tuple"] = metric{l("engine.pipeline_ns_per_tuple") - 3*l("engine.hop_ns_per_tuple") -
		l("operator.counter_on_tuple_ns") - l("operator.passthrough_on_tuple_ns"), "ns"}
	return nil
}

func (p *prober) wire() error {
	codec := state.GobPayloadCodec{}
	boxed := any(int64(time.Second)) // a due time's magnitude: the varint length the workload ships
	enc := stream.NewEncoder(16 * batchSize)
	var err error
	p.perOp("wirecodec.encode_int64_ns", probeOps, func() {
		for i := 0; i < probeOps; i++ {
			if i%batchSize == 0 {
				enc.Reset()
			}
			if e := wirecodec.EncodePayload(enc, boxed, codec); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	enc.Reset()
	for i := 0; i < batchSize; i++ {
		if err := wirecodec.EncodePayload(enc, boxed, codec); err != nil {
			return err
		}
	}
	p.perOp("wirecodec.decode_int64_ns", probeOps, func() {
		var dec *stream.Decoder
		for i := 0; i < probeOps; i++ {
			if i%batchSize == 0 {
				dec = stream.NewDecoder(enc.Bytes())
			}
			if _, e := wirecodec.DecodePayload(dec, codec); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}

	var received atomic.Int64
	arrived := make(chan struct{}, 1)
	l, err := transport.ListenWith("127.0.0.1:0", codec, transport.Handlers{
		OnBatch: func(b transport.Batch) {
			received.Add(int64(len(b.Tuples)))
			select {
			case arrived <- struct{}{}:
			default:
			}
		},
	}, nil)
	if err != nil {
		return err
	}
	defer l.Close()
	peer, err := transport.Dial(l.Addr(), codec)
	if err != nil {
		return err
	}
	defer peer.Close()
	keys := newKeygen(p.seed, p.s.timedKeys())
	tuples := make([]stream.Tuple, batchSize)
	batch := transport.Batch{From: mapInst, To: cntInst}
	var ts int64
	send := func(n int) error {
		for i := 0; i < n; i++ {
			ts++
			tuples[i] = stream.Tuple{TS: ts, Key: keys.next(), Born: 1, Payload: boxed}
		}
		batch.Tuples = tuples[:n]
		return peer.SendBatch(batch)
	}
	p.perOp("transport.hop_ns_per_tuple", probeFlood, func() {
		for sent := 0; sent < probeFlood && err == nil; sent += batchSize {
			err = send(batchSize)
		}
		for deadline := time.Now().Add(60 * time.Second); err == nil && received.Load() < probeFlood; {
			if time.Now().After(deadline) {
				err = fmt.Errorf("transport probe: %d of %d tuples received in 60 s", received.Load(), probeFlood)
			}
			time.Sleep(50 * time.Microsecond)
		}
	})
	if err != nil {
		return err
	}
	// One open-loop tick's batch on an idle link, send to receipt.
	perTick := int(float64(p.s.rate) * p.s.tick.Seconds())
	var trips []float64
	sp := p.tr.begin("probe.transport.batch_rtt_us", p.parent)
	lost := time.NewTimer(time.Hour)
	defer lost.Stop()
	for i := 0; i < 200; i++ {
		time.Sleep(time.Millisecond)
		select {
		case <-arrived:
		default:
		}
		lost.Reset(10 * time.Second)
		t0 := time.Now()
		if err := send(min(perTick, batchSize)); err != nil {
			return err
		}
		select {
		case <-arrived:
		case <-lost.C:
			return fmt.Errorf("transport probe: batch %d not received in 10 s", i)
		}
		trips = append(trips, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	p.tr.end(sp)
	p.out["transport.batch_rtt_us"] = metric{median(trips), "us"}
	return nil
}

func (p *prober) core() error {
	st, v := p.filledStore()
	cp, err := p.checkpointOf(st)
	if err != nil {
		return err
	}
	p.perCall("core.backup_store_ms", "ms", func() func() {
		store := core.NewBackupStore()
		return func() { err = store.Store(mapInst, cp) }
	})
	if err != nil {
		return err
	}
	keys := newKeygen(p.seed, p.s.timedKeys())
	dirty := min(p.bufferedBetweenCheckpoints(), p.s.timedKeys())
	p.perCall("core.apply_delta_ms", "ms", func() func() {
		store := core.NewBackupStore()
		if err = store.Store(mapInst, cp); err != nil {
			return func() {}
		}
		for i := 0; i < dirty; i++ {
			v.Update(keys.next(), inc)
		}
		d, derr := st.TakeDelta(stream.NewTSVector(1), cp.Seq, cp.Seq+1)
		if derr != nil {
			err = derr
			return func() {}
		}
		dc := &state.DeltaCheckpoint{Instance: cntInst, Delta: d, Buffer: state.NewBuffer()}
		return func() { err = store.ApplyDelta(mapInst, dc) }
	})
	if err != nil {
		return err
	}
	topo, err := topology()
	if err != nil {
		return err
	}
	plans := func(name string, call func(*core.Manager) error) {
		p.perCall(name, "ms", func() func() {
			m, merr := core.NewManager(topo.Query())
			if merr != nil {
				err = merr
				return func() {}
			}
			host, herr := m.BackupTarget(cntInst)
			if herr != nil {
				err = herr
				return func() {}
			}
			if serr := m.Backups().Store(host, cp); serr != nil {
				err = serr
				return func() {}
			}
			return func() {
				if cerr := call(m); cerr != nil {
					err = cerr
				}
			}
		})
	}
	plans("core.plan_recovery_ms", func(m *core.Manager) error { _, e := m.PlanRecovery(cntInst, 1); return e })
	plans("core.plan_replace_ms", func(m *core.Manager) error { _, e := m.PlanReplace(cntInst, 2); return e })
	return err
}

func (p *prober) journal() error {
	dir := filepath.Join(p.dir, fmt.Sprintf("probe-journal-%s", p.s.name))
	j, err := controlplane.Open(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer j.Close()
	rec := &controlplane.Record{Kind: controlplane.RecShip, Ship: &controlplane.ShipMark{Inst: cntInst, Seq: 1, Bytes: 1 << 20}}
	var took []float64
	sp := p.tr.begin("probe.controlplane.append_us", p.parent)
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		if err := j.Append(rec); err != nil {
			return err
		}
		took = append(took, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	p.tr.end(sp)
	p.out["controlplane.append_us"] = metric{median(took), "us"}
	return nil
}
