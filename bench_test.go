// Benchmark harness: end-to-end throughput anchors and micro-benchmarks
// of the state-management primitives. The paper's figures and the
// design-choice ablations are not benchmarks: internal/experiments'
// TestFig*Shape and TestAblations pin each one's golden, and
// cmd/seep-bench prints them (-quick for the reduced scale).
package seep_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"seep"

	"seep/internal/core"
	"seep/internal/engine"
	"seep/internal/metrics"
	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
	"seep/internal/transport"
)

// BenchmarkEnginePipeline is the end-to-end throughput anchor of the
// live engine: a source→map→keyed-sum→sink pipeline with checkpointing
// active, driven to completion for b.N tuples, batched versus unbatched
// (batch=1 is the per-tuple data path the engine had before
// micro-batching). ns/op is per tuple; tuples/s and allocs/op are the
// headline numbers recorded in BENCH_pipeline.json and the README's
// Performance section.
func BenchmarkEnginePipeline(b *testing.B) {
	build := func(batch int) (*engine.Engine, plan.InstanceID) {
		q := plan.NewQuery()
		q.AddOp(plan.OpSpec{ID: "src", Role: plan.RoleSource})
		q.AddOp(plan.OpSpec{ID: "map", Role: plan.RoleStateless})
		q.AddOp(plan.OpSpec{ID: "sum", Role: plan.RoleStateful})
		q.AddOp(plan.OpSpec{ID: "sink", Role: plan.RoleSink})
		q.Connect("src", "map")
		q.Connect("map", "sum")
		q.Connect("sum", "sink")
		factories := map[plan.OpID]operator.Factory{
			"map": func() operator.Operator { return operator.Passthrough() },
			"sum": func() operator.Operator {
				return operator.NewKeyedSum(0, func(p any) (float64, bool) {
					v, ok := p.(float64)
					return v, ok
				})
			},
		}
		e, err := engine.New(engine.Config{
			CheckpointInterval: 100 * time.Millisecond,
			BatchSize:          batch,
		}, q, factories)
		if err != nil {
			b.Fatal(err)
		}
		return e, plan.InstanceID{Op: "src", Part: 1}
	}
	// One boxed payload shared by every tuple, so the benchmark measures
	// the data path, not interface boxing in the generator.
	one := any(float64(1))
	gen := func(i uint64) (stream.Key, any) {
		return stream.Key(stream.Mix64(i % 1024)), one
	}
	for _, batch := range []int{1, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			e, src := build(batch)
			e.Start()
			defer e.Stop()
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.InjectBatch(src, b.N, gen); err != nil {
				b.Fatal(err)
			}
			for e.SinkCount.Value() < uint64(b.N) {
				time.Sleep(100 * time.Microsecond)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkTransportPipeline is the wire-throughput anchor recorded in
// BENCH_transport.json: b.N string-payload tuples ship through the
// checksummed v2 framing as 256-tuple batch frames over loopback TCP and
// are decoded and counted at the listener. ns/op is per tuple end to end
// (encode + CRC + syscalls + decode), the budget a worker-to-worker hop
// adds on top of the in-process path measured by BenchmarkEnginePipeline.
func BenchmarkTransportPipeline(b *testing.B) {
	var received metrics.Counter
	codec := state.StringPayloadCodec{}
	l, err := transport.ListenWith("127.0.0.1:0", codec, transport.Handlers{
		OnBatch: func(bt transport.Batch) { received.Add(uint64(len(bt.Tuples))) },
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	p, err := transport.Dial(l.Addr(), codec)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()

	const batchSize = 256
	tuples := make([]stream.Tuple, batchSize)
	for i := range tuples {
		tuples[i] = stream.Tuple{Key: stream.Key(stream.Mix64(uint64(i))), Born: 1, Payload: "payload-string"}
	}
	batch := transport.Batch{
		From: plan.InstanceID{Op: "split", Part: 1},
		To:   plan.InstanceID{Op: "count", Part: 1},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ts int64
	for sent := 0; sent < b.N; {
		n := batchSize
		if rem := b.N - sent; rem < n {
			n = rem
		}
		batch.Tuples = tuples[:n]
		for i := range batch.Tuples {
			ts++
			batch.Tuples[i].TS = ts
		}
		if err := p.SendBatch(batch); err != nil {
			b.Fatal(err)
		}
		sent += n
	}
	for received.Value() < uint64(b.N) {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkBoundedMemoryKeyedSum is the out-of-core smoke recorded in
// BENCH_backpressure.json: 10M distinct keys stream through a keyed sum
// on the public live runtime with a 64 MiB state ceiling
// (WithMemoryLimit), so the run completes only if cold key ranges spill
// to disk instead of growing the heap — CI runs it under a GOMEMLIMIT
// well below the unbounded footprint. Checkpointing is off: the
// in-process backup would be a full second replica of the state, which
// is another host's memory in the paper's deployment; spill × checkpoint
// composition is pinned by the -race tests in internal/state and
// internal/engine. Each iteration is one full 10M-key run; the bench
// fails if the ceiling never engages.
func BenchmarkBoundedMemoryKeyedSum(b *testing.B) {
	const keys = 10_000_000
	const ceiling = 64 << 20
	one := any(float64(1))
	gen := func(i uint64) (seep.Key, any) { return seep.Key(stream.Mix64(i)), one }
	sum := func() seep.Operator {
		return seep.NewKeyedSum(0, func(p any) (float64, bool) {
			v, ok := p.(float64)
			return v, ok
		})
	}
	b.ReportAllocs()
	var spilled uint64
	for i := 0; i < b.N; i++ {
		rt := seep.Live(
			seep.WithCheckpointInterval(0),
			seep.WithBatching(256, 2*time.Millisecond),
			seep.WithMemoryLimit(ceiling),
		)
		job, err := rt.Deploy(seep.NewTopology().
			Source("src").
			Stateful("sum", sum).
			Sink("sink"))
		if err != nil {
			b.Fatal(err)
		}
		job.Start()
		if err := job.InjectBatch("src", keys, gen); err != nil {
			b.Fatal(err)
		}
		for job.MetricsSnapshot().SinkTuples < keys {
			time.Sleep(10 * time.Millisecond)
		}
		m := job.MetricsSnapshot()
		spilled = m.Backpressure.Spill.SpilledTotal
		if spilled == 0 {
			b.Fatalf("memory ceiling never engaged: %+v", m.Backpressure.Spill)
		}
		b.StopTimer()
		job.Stop() // materialises the spilled tail; not part of the data path
		b.StartTimer()
	}
	b.ReportMetric(float64(keys)/b.Elapsed().Seconds()*float64(b.N), "keys/s")
	b.ReportMetric(float64(spilled), "spilled-keys")
}

// --- micro-benchmarks of the state management primitives ---

func mkProcessing(keys, valueBytes int) state.Run {
	ks := make([]stream.Key, keys)
	for i := range ks {
		ks[i] = stream.Key(stream.Mix64(uint64(i)))
	}
	slices.Sort(ks)
	var kv state.RunBuilder
	for _, k := range ks {
		kv.Append(k, make([]byte, valueBytes))
	}
	return kv.Run()
}

// BenchmarkPartitionState measures partition-processing-state
// (Algorithm 2) across parallelism levels.
func BenchmarkPartitionState(b *testing.B) {
	for _, pi := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("pi=%d", pi), func(b *testing.B) {
			p := mkProcessing(50_000, 20)
			ranges := state.FullRange.SplitEven(pi)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range ranges {
					_ = p.Range(r)
				}
			}
		})
	}
}

// BenchmarkValueUpdate measures the state access every tuple of a
// stateful operator pays: Value.Update of an int64 cell holding 100 k
// hashed keys, visited in a prime stride so consecutive updates land
// far apart in the table.
func BenchmarkValueUpdate(b *testing.B) {
	const keys, stride = 100_000, 7_919
	s := state.NewStore()
	v := state.NewValue[int64](s, "n", state.Int64Codec{})
	ks := make([]stream.Key, keys)
	for i := range ks {
		ks[i] = stream.Key(stream.Mix64(uint64(i)))
		v.Set(ks[i], 0)
	}
	inc := func(n int64) int64 { return n + 1 }
	b.ReportAllocs()
	b.ResetTimer()
	for i, j := 0, 0; i < b.N; i++ {
		v.Update(ks[j], inc)
		if j += stride; j >= keys {
			j -= keys
		}
	}
}

// hashedStore returns a store whose one int64 cell holds keys hashed
// keys, and the cell.
func hashedStore(keys int) (*state.Store, *state.Value[int64]) {
	return rangeStore(keys, state.FullRange)
}

// rangeStore is hashedStore with only the hashed keys in r, the part of
// the key space a split instance holds.
func rangeStore(keys int, r state.KeyRange) (*state.Store, *state.Value[int64]) {
	s := state.NewStore()
	v := state.NewValue[int64](s, "n", state.Int64Codec{})
	for i, n := uint64(0), 0; n < keys; i++ {
		if k := stream.Key(stream.Mix64(i)); r.Contains(k) {
			v.Set(k, int64(i))
			n++
		}
	}
	return s, v
}

// BenchmarkTakeCheckpoint measures a full capture of an int64 cell
// holding 100 k and 1 M hashed keys, after one update so the store is
// never clean: the key-table walk and the record writes, with no
// encode or ship. ns/op is per capture.
func BenchmarkTakeCheckpoint(b *testing.B) {
	for _, keys := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			s, v := hashedStore(keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Update(stream.Key(stream.Mix64(uint64(i%keys))), func(x int64) int64 { return x + 1 })
				if _, err := s.TakeCheckpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestore measures set-processing-state on a recovery's
// critical path: Store.Restore of a captured run of 100 k and 1 M
// hashed int64 keys, and of 200 k keys of the upper half of the key
// space (a scale-out's new instance), which replaces the store's
// contents. ns/op is per restore.
func BenchmarkRestore(b *testing.B) {
	for _, c := range []struct {
		name string
		keys int
		r    state.KeyRange
	}{
		{"keys=100000", 100_000, state.FullRange},
		{"keys=1000000", 1_000_000, state.FullRange},
		{"keys=200000/upper-half", 200_000, state.FullRange.SplitEven(2)[1]},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, _ := rangeStore(c.keys, c.r)
			run, err := s.TakeCheckpoint()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Restore(run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRoutingLookup measures the per-tuple routing decision at
// realistic partition counts.
func BenchmarkRoutingLookup(b *testing.B) {
	for _, parts := range []int{2, 16, 64} {
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			entries := make([]state.RouteEntry, parts)
			for i, r := range state.FullRange.SplitEven(parts) {
				entries[i] = state.RouteEntry{
					Target: plan.InstanceID{Op: "o", Part: i + 1},
					Range:  r,
				}
			}
			rt, err := state.NewRoutingFromEntries(entries)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = rt.Lookup(stream.Key(stream.Mix64(uint64(i))))
			}
		})
	}
}

// BenchmarkBufferTrim measures the acknowledgement-driven trim of
// Algorithm 1 line 4: a buffer holding 10 000 tuples drops the older
// half. Each op trims a fresh clone of one buffer; the clones are made
// untimed in batches, so the timer stops once per batch rather than
// once per trim and the default benchtime ends in seconds.
func BenchmarkBufferTrim(b *testing.B) {
	target := plan.InstanceID{Op: "count", Part: 1}
	const batch = 16
	full := state.NewBuffer()
	for ts := int64(1); ts <= 10_000; ts++ {
		full.Append(target, stream.Tuple{TS: ts, Key: stream.Key(ts)})
	}
	bufs := make([]*state.Buffer, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			for j := range bufs {
				bufs[j] = full.Clone()
			}
			b.StartTimer()
		}
		bufs[i%batch].TrimInstance(target, 5_000)
	}
}

// BenchmarkBufferTrimIncremental guards the amortised trim path: a
// steady-state buffer at ~50k retained tuples absorbs a small append
// burst and an acknowledgement-driven trim per op. The head-index
// design makes this O(step); a regression to copy-per-trim makes it
// O(window) and shows up as a ~100× slowdown here.
func BenchmarkBufferTrimIncremental(b *testing.B) {
	target := plan.InstanceID{Op: "count", Part: 1}
	const window = 50_000
	const step = 100
	buf := state.NewBuffer()
	ts := int64(0)
	h := buf.Handle(target)
	for i := 0; i < window; i++ {
		ts++
		h.Append(stream.Tuple{TS: ts, Key: stream.Key(ts)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < step; j++ {
			ts++
			h.Append(stream.Tuple{TS: ts, Key: stream.Key(ts)})
		}
		buf.TrimInstance(target, ts-window)
	}
}

// BenchmarkEncodeDecodeProcessing measures checkpoint serialisation of
// a checkpoint that is all processing state.
func BenchmarkEncodeDecodeProcessing(b *testing.B) {
	cp := &state.Checkpoint{Instance: plan.InstanceID{Op: "cnt", Part: 1}, Seq: 1,
		Processing: &state.Processing{KV: mkProcessing(10_000, 20)}}
	codec := state.GobPayloadCodec{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blob, err := state.MarshalCheckpoint(cp, codec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := state.DecodeCheckpoint(stream.NewDecoder(blob), codec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaCheckpoint measures incremental checkpoint extraction
// from the managed store for a 1% dirty fraction.
func BenchmarkDeltaCheckpoint(b *testing.B) {
	s := state.NewStore()
	m := state.NewMap[int64](s, "counts", state.Int64Codec{})
	for i := 0; i < 10_000; i++ {
		m.Put(stream.Key(stream.Mix64(uint64(i))), "f", int64(i))
	}
	if _, err := s.TakeCheckpoint(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 100; j++ {
			k := stream.Key(stream.Mix64(uint64((i*131 + j*17) % 10_000)))
			m.Update(k, "f", func(c int64) int64 { return c + 1 })
		}
		b.StartTimer()
		if _, err := s.TakeDelta(nil, uint64(i+1), uint64(i+2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChooseBackup measures the hashed backup placement decision.
func BenchmarkChooseBackup(b *testing.B) {
	ups := make([]plan.InstanceID, 16)
	for i := range ups {
		ups[i] = plan.InstanceID{Op: "u", Part: i + 1}
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.ChooseBackup(plan.InstanceID{Op: "o", Part: i}, ups); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeyOf measures tuple key hashing.
func BenchmarkKeyOf(b *testing.B) {
	words := make([]string, 256)
	for i := range words {
		words[i] = fmt.Sprintf("word-%06d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stream.KeyOfString(words[i%len(words)])
	}
}

// BenchmarkCheckpointFullVsIncremental compares what a checkpoint
// interval ships under full versus incremental checkpointing for a
// large keyspace with small per-interval churn (100k keys, 1% dirtied).
// The bytes/op metrics are the measurable §3.2 win; the benchmark also
// exercises the managed store's TakeCheckpoint/TakeDelta paths and the
// backup-side fold.
func BenchmarkCheckpointFullVsIncremental(b *testing.B) {
	const keys = 100_000
	const churn = 1_000 // 1% of the keyspace per interval
	build := func() (*state.Store, *state.Map[int64]) {
		s := state.NewStore()
		m := state.NewMap[int64](s, "counts", state.Int64Codec{})
		for i := 0; i < keys; i++ {
			m.Put(stream.Key(stream.Mix64(uint64(i))), "f", int64(i))
		}
		return s, m
	}
	dirty := func(m *state.Map[int64], round int) {
		for j := 0; j < churn; j++ {
			k := stream.Key(stream.Mix64(uint64((round*7919 + j) % keys)))
			m.Update(k, "f", func(c int64) int64 { return c + 1 })
		}
	}

	b.Run("full", func(b *testing.B) {
		s, m := build()
		if _, err := s.TakeCheckpoint(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		bytes := 0
		for i := 0; i < b.N; i++ {
			dirty(m, i)
			kv, err := s.TakeCheckpoint()
			if err != nil {
				b.Fatal(err)
			}
			bytes += kv.Size()
		}
		b.ReportMetric(float64(bytes)/float64(b.N), "shipped-B/op")
	})
	b.Run("incremental", func(b *testing.B) {
		s, m := build()
		if _, err := s.TakeCheckpoint(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		bytes := 0
		for i := 0; i < b.N; i++ {
			dirty(m, i)
			d, err := s.TakeDelta(nil, uint64(i+1), uint64(i+2))
			if err != nil {
				b.Fatal(err)
			}
			bytes += d.Size()
		}
		b.ReportMetric(float64(bytes)/float64(b.N), "shipped-B/op")
	})
	// The backup-host side: folding a 1%-churn delta into a stored base.
	b.Run("fold", func(b *testing.B) {
		s, m := build()
		kv, err := s.TakeCheckpoint()
		if err != nil {
			b.Fatal(err)
		}
		base := &state.Checkpoint{Seq: 1, Processing: &state.Processing{KV: kv}}
		dirty(m, 0)
		d, err := s.TakeDelta(nil, 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		delta := &state.Checkpoint{Seq: 2, Base: 1, Deleted: d.Deleted,
			Processing: &state.Processing{KV: d.Changed}, Buffer: state.NewBuffer()}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := delta.Fold(base); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireCheckpointBytes measures what one checkpoint interval
// puts ON THE WIRE (encoded checkpoints, not in-memory sizes) for a
// 100k-key operator with 1% churn: a full checkpoint versus the
// checkpoint a delta travels as, which holds only the dirty keys (its
// base and deleted keys ride beside it in the ship message; the churn
// here deletes none). The bytes-on-wire ratio is the acceptance
// criterion for shipping deltas over the network — the delta must be at
// least 10x smaller. ns/op is the delta's encode.
func BenchmarkWireCheckpointBytes(b *testing.B) {
	const keys = 100_000
	const churn = 1_000
	codec := state.GobPayloadCodec{}
	inst := plan.InstanceID{Op: "count", Part: 1}
	s := state.NewStore()
	m := state.NewMap[int64](s, "counts", state.Int64Codec{})
	for i := 0; i < keys; i++ {
		m.Put(stream.Key(stream.Mix64(uint64(i))), "f", int64(i))
	}
	kv, err := s.TakeCheckpoint()
	if err != nil {
		b.Fatal(err)
	}
	full := &state.Checkpoint{
		Instance: inst, Seq: 1, Processing: &state.Processing{KV: kv},
		Buffer: state.NewBuffer(), OutClock: int64(keys),
		Acks: map[plan.InstanceID]int64{{Op: "src", Part: 1}: int64(keys)},
	}
	for j := 0; j < churn; j++ {
		k := stream.Key(stream.Mix64(uint64(j * 97 % keys)))
		m.Update(k, "f", func(c int64) int64 { return c + 1 })
	}
	d, err := s.TakeDelta(nil, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	dc := &state.DeltaCheckpoint{
		Instance: inst, Delta: d,
		Buffer: state.NewBuffer(), OutClock: int64(keys) + churn,
		Acks: map[plan.InstanceID]int64{{Op: "src", Part: 1}: int64(keys) + churn},
	}

	fe := stream.NewEncoder(1 << 20)
	if err := state.EncodeCheckpoint(fe, full, codec); err != nil {
		b.Fatal(err)
	}
	fullBytes := fe.Len()

	var deltaBytes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := state.MarshalCheckpoint(dc.Checkpoint(), codec)
		if err != nil {
			b.Fatal(err)
		}
		deltaBytes = len(blob)
	}
	b.ReportMetric(float64(fullBytes), "full-B")
	b.ReportMetric(float64(deltaBytes), "delta-B")
	b.ReportMetric(float64(fullBytes)/float64(deltaBytes), "full/delta-x")
}

// BenchmarkCheckpointShip is one full checkpoint's trip from the store
// to a restorable backup at steady-dist's shape — 100k int64 cells plus
// the 25k tuples buffered over a 500 ms interval at 50k tuples/s:
// capture and encode at the worker, header-only store at the
// coordinator, and the decode a later transition pays once. ns/op is per
// checkpoint; the anchor in BENCH_checkpoint.json guards it
// (scripts/bench_guard.sh). Per-key work in the capture (a map entry, an
// encoder, a slice per key) or per-tuple work in the buffer codec
// multiplies it several times over.
func BenchmarkCheckpointShip(b *testing.B) {
	const keys, buffered = 100_000, 25_000
	codec := state.GobPayloadCodec{}
	inst, host := plan.InstanceID{Op: "cnt", Part: 1}, plan.InstanceID{Op: "map", Part: 1}
	s := state.NewStore()
	v := state.NewValue[int64](s, "n", state.Int64Codec{})
	for i := 0; i < keys; i++ {
		v.Set(stream.Key(stream.Mix64(uint64(i))), int64(i))
	}
	cp := &state.Checkpoint{Instance: inst, Processing: &state.Processing{}, Buffer: state.NewBuffer(),
		OutClock: buffered, Acks: map[plan.InstanceID]int64{host: buffered}}
	h := cp.Buffer.Handle(plan.InstanceID{Op: "sink", Part: 1})
	for i := 0; i < buffered; i++ {
		h.Append(stream.Tuple{TS: int64(i + 1), Key: stream.Key(stream.Mix64(uint64(i))), Born: int64(i / 50), Payload: int64(i) * 20_000})
	}
	store := core.NewBackupStore()
	var bytes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One update per iteration, so the store is never trivially clean.
		v.Update(stream.Key(stream.Mix64(uint64(i%keys))), func(x int64) int64 { return x + 1 })
		kv, err := s.TakeCheckpoint()
		if err != nil {
			b.Fatal(err)
		}
		cp.Processing.KV = kv
		cp.Seq = uint64(i + 1)
		blob, err := state.MarshalCheckpoint(cp, codec)
		if err != nil {
			b.Fatal(err)
		}
		hdr, err := state.DecodeCheckpointHeader(blob)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.StoreEncoded(host, hdr, blob, codec); err != nil {
			b.Fatal(err)
		}
		got, _, ok := store.Latest(inst)
		if !ok || got.Buffer.Len() != buffered || got.Processing.KV.Len() != keys {
			b.Fatalf("stored checkpoint did not decode: %v", ok)
		}
		bytes = len(blob)
	}
	b.ReportMetric(float64(bytes), "blob-B")
}
