package engine

import (
	"fmt"
	"time"

	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

// Checkpoint barrier protocol. A checkpoint is captured ON the node
// goroutine: the checkpoint loop sends a barrier control message, the
// node processes it between input batches, clones its bookkeeping (ack
// watermarks, output buffer, output clock) and
// extracts operator state (full snapshot or incremental delta), and
// replies with the capture. Because a batch advances ack watermarks and
// applies operator mutations on the same goroutine, a barrier can never
// observe a tuple as acknowledged without its state mutation: the
// ack-before-state window the pre-barrier engine had (checkpoints
// cloned bookkeeping from another goroutine, racing the gap inside
// handle()) is structurally gone, matching the simulator, whose
// snapshots were always within one event. Shipping to the backup host
// and trimming acknowledged tuples from upstream buffers stay on the
// checkpoint loop, so the node stalls only for the capture itself.

// checkpointAll runs backup-state for every non-source, non-sink node,
// reusing the node-set snapshot rather than rebuilding a slice under
// the engine lock every interval. A round the sink would refuse (a
// distributed worker without a coordinator) captures nothing: each node
// owes a full checkpoint instead.
func (e *Engine) checkpointAll() {
	set := e.set.Load()
	if set == nil {
		return
	}
	accepts := e.backup.Accepts()
	for _, n := range set.stateful {
		switch {
		case n.failed.Load():
		case accepts:
			e.checkpointNode(n)
		default:
			n.mu.Lock()
			n.NeedFull = true
			n.mu.Unlock()
		}
	}
}

// checkpointNode takes a consistent checkpoint of one node via a
// barrier and hands it to the engine's backup sink, which stores it at
// its backup host and trims acknowledged tuples from upstream buffers
// (Algorithm 1). Whether the capture is a full or an incremental
// checkpoint is state.Capture's decision; a capture the sink refused
// (missing base, moved host, coordinator unreachable) leaves the node
// owing a full checkpoint, and a refused delta is re-captured as one at
// once — so a delta is never load-bearing, and callers that need a fresh
// usable backup (ScaleOut) are not left behind a stale one. A refused
// full is counted in CheckpointsRefused. A nil capture means the node
// stopped or its state failed to encode; the round is skipped, keeping
// the previous backup rather than shipping partial state.
func (e *Engine) checkpointNode(n *node) {
	for range 2 {
		cp := e.requestCapture(n)
		if cp == nil || e.backup.Ship(cp) == nil {
			return
		}
		n.mu.Lock()
		n.NeedFull = true
		n.mu.Unlock()
		if cp.Base == 0 {
			e.CheckpointsRefused.Inc()
			return
		}
	}
}

// localSink is the backup sink of an engine that is not a distributed
// worker: it stores captures in the engine's own backup store and trims
// the upstream buffers they acknowledge.
type localSink struct{ e *Engine }

func (s localSink) Ship(cp *state.Checkpoint) error {
	host, err := s.e.mgr.BackupTarget(cp.Instance)
	if err == nil {
		err = s.e.mgr.Backups().Store(host, cp)
	}
	if err == nil {
		s.e.trimAcked(cp.Instance, cp.Acks)
	}
	return err
}

func (localSink) Accepts() bool { return true }

// requestCapture obtains a checkpoint capture from the node. On a
// running engine it inserts a barrier into the node's control queue and
// waits for the node goroutine to process it between batches; before
// Start (single-threaded setup) it captures inline.
func (e *Engine) requestCapture(n *node) *state.Checkpoint {
	if !e.started.Load() {
		return n.captureCheckpoint()
	}
	reply := make(chan *state.Checkpoint, 1)
	select {
	case n.ctrl <- ctrlMsg{kind: ctrlBarrier, reply: reply}:
	case <-n.done:
		return nil
	case <-e.stopAll:
		return nil
	}
	select {
	case c := <-reply:
		return c
	case <-n.done:
		// Node stopped before processing the barrier.
		return nil
	}
}

// captureCheckpoint runs on the node goroutine (or inline before
// Start). It clones the node bookkeeping under the narrow lock — the
// lock is needed only against cross-goroutine trims and replacement,
// never against processing, which is this same goroutine — and then
// extracts operator state with no node lock held. Nil when the state
// failed to encode.
func (n *node) captureCheckpoint() *state.Checkpoint {
	n.mu.Lock()
	c := n.BeginCheckpoint(n.inst)
	n.mu.Unlock()
	return c.Checkpoint(n.e.cfg.Incremental)
}

// trimAcked trims acknowledged tuples from upstream buffers after a
// successful backup (Algorithm 1 line 4).
func (e *Engine) trimAcked(inst plan.InstanceID, acks map[plan.InstanceID]int64) {
	for up, ts := range acks {
		e.TrimUpstream(up, inst, ts)
	}
}

// Fail crash-stops the VM hosting an instance: the node stops processing
// and backups it hosted are lost. Recovery must be triggered by Recover
// (the engine has no background failure detector; detection delay is the
// caller's to model or measure).
func (e *Engine) Fail(inst plan.InstanceID) error {
	e.mu.Lock()
	n := e.nodes[inst]
	if n == nil || n.failed.Load() {
		e.mu.Unlock()
		return fmt.Errorf("engine: %s is not a live instance", inst)
	}
	if n.spec.Role == plan.RoleSource || n.spec.Role == plan.RoleSink {
		e.mu.Unlock()
		return fmt.Errorf("engine: sources and sinks are assumed reliable (§2.2)")
	}
	n.failed.Store(true)
	n.failedAt = e.NowMillis()
	e.mu.Unlock()
	n.stop()
	e.mgr.HandleHostFailure(inst)
	return nil
}

// sourceDriver injects generated tuples following a rate profile.
type sourceDriver struct {
	inst plan.InstanceID
	rate func(nowMillis int64) float64
	gen  func(i uint64) (stream.Key, any)
}

// AddSource attaches a fixed-rate generator to a source instance. Rate
// is in tuples/second.
func (e *Engine) AddSource(inst plan.InstanceID, rate float64, gen func(i uint64) (stream.Key, any)) error {
	return e.AddSourceFunc(inst, func(int64) float64 { return rate }, gen)
}

// AddSourceFunc attaches a generator whose tuples/second rate may vary
// with wall-clock time since Start. Sources added before Start begin
// with it; sources added later start immediately.
func (e *Engine) AddSourceFunc(inst plan.InstanceID, rate func(nowMillis int64) float64, gen func(i uint64) (stream.Key, any)) error {
	e.mu.Lock()
	n := e.nodes[inst]
	if n == nil || n.spec.Role != plan.RoleSource {
		e.mu.Unlock()
		return fmt.Errorf("engine: %s is not a live source", inst)
	}
	s := &sourceDriver{inst: inst, rate: rate, gen: gen}
	e.sources = append(e.sources, s)
	running := e.started.Load()
	e.mu.Unlock()
	if running {
		e.startSource(s)
	}
	return nil
}

// startSource runs the driver loop: each tick the accrued tuples are
// staged locally and emitted as micro-batches. BatchLinger bounds how
// long a partial batch waits for the next tick.
func (e *Engine) startSource(s *sourceDriver) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		// The tick IS the linger: accrued tuples flush every interval,
		// so a partial batch waits at most one linger. The carry-based
		// rate conversion is exact at any tick length; long lingers
		// trade latency (and source burstiness) for batch fullness.
		tick := e.cfg.BatchLinger
		if tick <= 0 {
			tick = 10 * time.Millisecond
		}
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		var emitted uint64
		carry := 0.0
		var pend []state.Staged
		// Adaptive linger: when the previous flush hit send stalls the
		// source holds its accrued tuples for extra ticks (up to
		// maxLingerStretch), emitting fewer, fuller batches instead of
		// piling onto a starved edge; the stretch decays one tick per
		// stall-free flush. holdCap bounds the held backlog regardless.
		const maxLingerStretch = 8
		holdCap := maxLingerStretch * e.cfg.BatchSize
		var stretch, skip int
		for {
			select {
			case <-e.stopAll:
				return
			case <-ticker.C:
				set := e.set.Load()
				if set == nil {
					continue
				}
				n := set.byInst[s.inst]
				if n == nil {
					return
				}
				carry += s.rate(e.NowMillis()) * tick.Seconds()
				k := int(carry)
				carry -= float64(k)
				born := e.NowMillis()
				for i := 0; i < k; i++ {
					key, payload := s.gen(emitted)
					emitted++
					pend = append(pend, state.Staged{Key: key, Payload: payload, Born: born})
				}
				if len(pend) == 0 {
					continue
				}
				if skip > 0 && len(pend) < holdCap {
					skip--
					continue
				}
				before := e.stalls.Value()
				n.emitAll(pend)
				clear(pend)
				pend = pend[:0]
				if e.stalls.Value() > before {
					if stretch < maxLingerStretch {
						stretch++
					}
				} else if stretch > 0 {
					stretch--
				}
				skip = stretch
			}
		}
	}()
}

// InjectBatch synchronously emits count tuples from a source instance —
// for tests and examples that need exact tuple counts rather than rates.
func (e *Engine) InjectBatch(inst plan.InstanceID, count int, gen func(i uint64) (stream.Key, any)) error {
	e.mu.RLock()
	n := e.nodes[inst]
	e.mu.RUnlock()
	if n == nil || n.spec.Role != plan.RoleSource {
		return fmt.Errorf("engine: %s is not a live source", inst)
	}
	born := e.NowMillis()
	bs := e.cfg.BatchSize
	if bs > count {
		bs = count
	}
	// Stage in batch-sized chunks rather than materialising all count
	// tuples at once: generation interleaves with processing and memory
	// stays bounded by the batch size.
	pend := make([]state.Staged, 0, bs)
	for i := 0; i < count; i++ {
		key, payload := gen(uint64(i))
		pend = append(pend, state.Staged{Key: key, Payload: payload, Born: born})
		if len(pend) == cap(pend) {
			n.emitAll(pend)
			pend = pend[:0]
		}
	}
	n.emitAll(pend)
	return nil
}

// OperatorOf returns the operator instance object hosted by inst, so
// tests and examples can inspect state (nil if unknown).
func (e *Engine) OperatorOf(inst plan.InstanceID) any {
	if set := e.set.Load(); set != nil {
		if n := set.byInst[inst]; n != nil {
			return n.op
		}
	}
	return nil
}

// Checkpoint forces an immediate checkpoint of one instance (tests and
// examples; production uses the periodic loop). On a running engine the
// checkpoint is captured via a barrier on the instance's goroutine.
func (e *Engine) Checkpoint(inst plan.InstanceID) error {
	e.mu.RLock()
	n := e.nodes[inst]
	e.mu.RUnlock()
	if n == nil || n.failed.Load() {
		return fmt.Errorf("engine: %s is not live", inst)
	}
	e.checkpointNode(n)
	return nil
}

// CheckpointFull forces an immediate full (non-incremental) checkpoint
// of one instance, incremental checkpoints or not. The coordinator's
// barriers use it: the store entry a barrier refreshes — one reloaded
// after a coordinator failover, or a merge product's plan-time entry —
// need not hold the instance's last sequence, so a delta could be
// dropped for lack of its base.
func (e *Engine) CheckpointFull(inst plan.InstanceID) error {
	e.mu.RLock()
	n := e.nodes[inst]
	e.mu.RUnlock()
	if n == nil || n.failed.Load() {
		return fmt.Errorf("engine: %s is not live", inst)
	}
	n.mu.Lock()
	n.NeedFull = true
	n.mu.Unlock()
	e.checkpointNode(n)
	return nil
}

// Quiesce waits until no node has processed a tuple for the given
// settle duration, up to the timeout. Returns true when the engine
// settled. Used by tests to reach a stable state before assertions.
func (e *Engine) Quiesce(settle, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	last := e.totalProcessed()
	lastChange := time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(settle / 4)
		cur := e.totalProcessed()
		if cur != last {
			last = cur
			lastChange = time.Now()
			continue
		}
		if time.Since(lastChange) >= settle {
			return true
		}
	}
	return false
}

func (e *Engine) totalProcessed() uint64 {
	set := e.set.Load()
	if set == nil {
		return 0
	}
	var n uint64
	for _, nd := range set.nodes {
		n += nd.processed.Value()
	}
	return n
}
