package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"seep/internal/engine"
	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
	"seep/internal/transport"
)

// SourceBinding attaches a generator to a source operator at Start —
// the registry-embedded form of Job.AddSource, for daemon deployments
// where the coordinator cannot ship Go functions over the wire.
type SourceBinding struct {
	Op   plan.OpID
	Rate func(nowMillis int64) float64
	Gen  func(i uint64) (stream.Key, any)
}

// Registry resolves topology names to operator code. Go cannot ship
// code between processes, so every worker binary links the topologies it
// may be asked to host and the coordinator sends only the name.
type Registry interface {
	Lookup(name string) (*plan.Query, map[plan.OpID]operator.Factory, []SourceBinding, error)
}

// Worker hosts a subset of a query's operator instances on a live
// engine, exchanges tuple batches with sibling workers over the
// transport, ships checkpoints to the coordinator and executes the
// coordinator's reroute/deploy/retire commands.
type Worker struct {
	reg   Registry
	codec state.PayloadCodec
	tm    *transport.Metrics
	ln    *transport.Listener
	self  string

	// mu guards the engine handle, the pre-deployment stash and the
	// retired set. The steady-state data path does not take it: deliver
	// reads the lock-free engPtr mirror.
	mu      sync.Mutex
	eng     *engine.Engine
	sources []SourceBinding
	coord   *transport.Peer
	stash   map[plan.InstanceID][]state.Batch
	retired map[plan.InstanceID]bool
	started bool
	killed  bool
	// final is the engine's last counters, kept by Kill so sums over
	// workers never go backwards when one dies.
	final WorkerStats
	// Orphan mode: the coordinator link died. The data path is
	// untouched — batches keep flowing worker-to-worker — while
	// checkpoint ships are refused (the engine keeps owing a full one)
	// and, when a standby address was advertised, a redial loop
	// announces this worker until a reborn coordinator adopts it.
	orphan     bool
	standby    string
	redialStop chan struct{}

	// engPtr mirrors w.eng for the lock-free inbound data path; written
	// under w.mu wherever w.eng changes.
	engPtr atomic.Pointer[engine.Engine]

	// ctrlQ serialises control messages onto their own goroutine, so a
	// slow reroute/deploy cannot starve heartbeat replies on the shared
	// coordinator connection (the listener loop answers heartbeats
	// between frames; see ctrlLoop).
	ctrlQ chan *Control

	// pmu guards the instance → worker-address placement map, read on
	// the remote-delivery path.
	pmu       sync.RWMutex
	placement map[plan.InstanceID]string

	// lmu guards the outbound data links. links is nil outside a job
	// (before assignment, after stop or kill), which is what makes link
	// refuse to create one.
	lmu   sync.Mutex
	links map[string]*peerLink

	reportStop chan struct{}
	died       chan struct{}
}

// NewWorker starts a worker listening on addr (e.g. "127.0.0.1:0"). It
// idles until a coordinator sends MsgAssign.
func NewWorker(addr string, reg Registry, codec state.PayloadCodec) (*Worker, error) {
	if codec == nil {
		codec = state.GobPayloadCodec{}
	}
	w := &Worker{
		reg:       reg,
		codec:     codec,
		tm:        &transport.Metrics{},
		stash:     make(map[plan.InstanceID][]state.Batch),
		retired:   make(map[plan.InstanceID]bool),
		placement: make(map[plan.InstanceID]string),
		ctrlQ:     make(chan *Control, 256),
		died:      make(chan struct{}),
	}
	go w.ctrlLoop()
	ln, err := transport.ListenWith(addr, codec, transport.Handlers{
		OnBatch:   w.deliver,
		OnControl: w.onControl,
	}, w.tm)
	if err != nil {
		return nil, err
	}
	w.ln = ln
	w.self = ln.Addr()
	return w, nil
}

// Addr returns the worker's listener address — its identity in the
// cluster.
func (w *Worker) Addr() string { return w.self }

// Engine returns the hosted engine (nil before assignment). In-process
// deployments use it for direct source injection and state inspection.
func (w *Worker) Engine() *engine.Engine { return w.engPtr.Load() }

// setEngine updates both the locked handle and its lock-free mirror.
//
// seep:locks w.mu
func (w *Worker) setEngine(eng *engine.Engine) {
	w.eng = eng
	w.engPtr.Store(eng)
}

// Wait blocks until the worker dies (MsgDie or Kill) — the daemon
// main's park.
func (w *Worker) Wait() { <-w.died }

// Kill crash-stops the worker: listener down, engine down, links down.
// Nothing is flushed — from the cluster's point of view the VM vanished,
// which is exactly what the heartbeat detector and recovery path are
// for.
func (w *Worker) Kill() {
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return
	}
	w.killed = true
	eng := w.eng
	coord := w.coord
	// Claim the job-scoped channels under the lock: a graceful stop
	// (MsgStop → handleStop) can race this crash-stop, and whoever
	// nils a field out owns closing it. The engine handle stays until its
	// final counters are kept below, so Stats never reads a gap.
	rs := w.reportStop
	w.reportStop = nil
	w.coord = nil
	rdl := w.redialStop
	w.redialStop = nil
	w.mu.Unlock()

	w.ln.Close()
	if rs != nil {
		close(rs)
	}
	if rdl != nil {
		close(rdl)
	}
	if coord != nil {
		coord.Close()
	}
	if eng != nil {
		eng.Stop()
		final := engineStats(eng)
		w.mu.Lock()
		w.final = final
		w.setEngine(nil)
		w.mu.Unlock()
	}
	w.closeLinks()
	close(w.died)
}

// Stats snapshots this worker's counters: the hosted engine's, or, once
// the worker was killed, the values that engine ended on.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	eng, s := w.eng, w.final
	w.mu.Unlock()
	if eng != nil {
		s = engineStats(eng)
	}
	s.Transport = w.tm.Snapshot()
	return s
}

// engineStats is the engine's share of a WorkerStats.
func engineStats(eng *engine.Engine) WorkerStats {
	return WorkerStats{
		SinkTuples:         eng.SinkCount.Value(),
		DupDropped:         eng.DupDropped.Value(),
		Backpressure:       eng.BackpressureSnapshot(),
		CheckpointsRefused: eng.CheckpointsRefused.Value(),
	}
}

// ---- inbound data path ----

// deliver queues a batch — off the wire, or emitted here toward an
// instance placed on this worker — on the hosted instance, waiting in
// DeliverLocal for room in that node's input: the connection (or
// emitter) that brought the batch stalls there, which is all the flow
// control the link needs. A batch for an instance that is planned here but not yet
// deployed (replays and rerouted tuples racing a MsgDeploy) is stashed
// until it arrives; one for a retired instance is dropped — its tuples
// are retained upstream and replayed to the replacements.
//
// seep:blocking
func (w *Worker) deliver(b state.Batch) {
	// Fast path: hosted and running — no worker lock.
	if eng := w.engPtr.Load(); eng != nil && eng.DeliverLocal(b) {
		return
	}
	// Hosted-or-stash is decided under the worker lock (handleDeploy
	// adopts and drains the stash under it); the delivery itself waits
	// outside it. An instance retired in between refuses the batch.
	w.mu.Lock()
	eng := w.eng
	if eng == nil || !eng.Hosts(b.To) {
		if !w.killed && !w.retired[b.To] {
			w.stash[b.To] = append(w.stash[b.To], b)
		}
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	eng.DeliverLocal(b)
}

// ---- control plane ----

// onControl applies trims and barriers at once, on the connection
// goroutine, and enqueues everything else for the control goroutine. A
// trim must not wait behind a slow deploy, and the per-connection loop
// must stay free to answer the heartbeats interleaved on the same
// coordinator connection, or a slow deploy would get a healthy worker
// declared dead mid-transition.
func (w *Worker) onControl(body []byte) {
	c, err := decodeControl(body)
	if err != nil {
		return
	}
	switch c.Kind {
	case MsgTrim:
		if eng := w.Engine(); eng != nil {
			for _, tr := range c.TrimAcks {
				eng.TrimUpstream(tr.Up, tr.Owner, tr.TS)
			}
		}
	case MsgBarrier:
		if eng := w.Engine(); eng != nil {
			// Checkpoint synchronously ships through the sink: off the
			// connection loop. Barriers always force a FULL checkpoint:
			// the store entry a barrier refreshes — one reloaded after a
			// coordinator failover, or a merge product's plan-time entry —
			// need not hold this worker's last sequence, so a delta could
			// be dropped for lack of its base.
			go func() {
				for _, inst := range c.Victims {
					_ = eng.CheckpointFull(inst)
				}
			}()
		}
	default:
		select {
		case w.ctrlQ <- c:
		case <-w.died:
		}
	}
}

func (w *Worker) ctrlLoop() {
	for {
		select {
		case <-w.died:
			return
		case c := <-w.ctrlQ:
			w.dispatch(c)
		}
	}
}

func (w *Worker) dispatch(c *Control) {
	switch c.Kind {
	case MsgAssign:
		w.ack(c, w.handleAssign(c))
	case MsgStart:
		w.handleStart(c)
		w.ack(c, nil)
	case MsgStop:
		w.handleStop()
	case MsgReroute:
		n, err := w.handleReroute(c)
		w.ackReplayed(c, n, err)
	case MsgDeploy:
		n, err := w.handleDeploy(c)
		w.ackReplayed(c, n, err)
	case MsgRetire:
		w.ack(c, w.handleRetire(c))
	case MsgResume:
		w.handleResume(c)
	case MsgDie:
		// Tear down off the handler goroutine: Kill closes the very
		// listener this callback runs under.
		go w.Kill()
	}
}

func (w *Worker) ack(c *Control, err error) { w.ackReplayed(c, 0, err) }

func (w *Worker) ackReplayed(c *Control, replayed int, err error) {
	reply := &Control{Kind: MsgAck, Seq: c.Seq, From: w.self, Replayed: replayed}
	if err != nil {
		reply.Err = err.Error()
	}
	w.sendToCoord(reply)
}

func (w *Worker) sendToCoord(c *Control) {
	w.mu.Lock()
	coord := w.coord
	w.mu.Unlock()
	if coord == nil {
		return
	}
	body, err := encodeControl(c)
	if err != nil {
		return
	}
	_ = coord.SendControl(body)
}

func (w *Worker) handleAssign(c *Control) error {
	q, factories, sources, err := w.reg.Lookup(c.Topology)
	if err != nil {
		return err
	}
	coord, err := transport.DialWith(c.CoordAddr, w.codec, w.tm)
	if err != nil {
		return err
	}
	hosted := make(map[plan.InstanceID]bool)
	placement := make(map[plan.InstanceID]string, len(c.Placements))
	for _, p := range c.Placements {
		placement[p.Inst] = p.Addr
		if p.Addr == w.self {
			hosted[p.Inst] = true
		}
	}
	cfg := c.Engine
	cfg.Hosted = func(inst plan.InstanceID) bool { return hosted[inst] }
	cfg.Backup = &shipSink{w: w}
	eng, err := engine.New(cfg, q, factories)
	if err != nil {
		coord.Close()
		return err
	}
	eng.SetRemote(&linkRouter{w: w})
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.killed {
		coord.Close()
		return fmt.Errorf("dist: worker is dead")
	}
	if w.eng != nil {
		coord.Close()
		return fmt.Errorf("dist: worker already assigned")
	}
	w.setEngine(eng)
	w.lmu.Lock()
	w.links = make(map[string]*peerLink)
	w.lmu.Unlock()
	w.coord = coord
	w.sources = sources
	w.standby = c.StandbyAddr
	w.armCoordHeartbeat(coord, c.DetectMillis)
	w.pmu.Lock()
	w.placement = placement
	w.pmu.Unlock()
	if c.ReportEveryMillis > 0 {
		w.reportStop = make(chan struct{})
		go w.reportLoop(time.Duration(c.ReportEveryMillis) * time.Millisecond)
	}
	return nil
}

func (w *Worker) handleStart(c *Control) {
	w.mu.Lock()
	eng := w.eng
	sources := w.sources
	already := w.started
	w.started = true
	w.mu.Unlock()
	if eng == nil || already {
		return
	}
	for _, s := range sources {
		for _, inst := range eng.Manager().Instances(s.Op) {
			// AddSourceFunc rejects instances not hosted here; bindings
			// attach only where the source lives.
			_ = eng.AddSourceFunc(inst, s.Rate, s.Gen)
		}
	}
	// Align this engine's clock to the coordinator's job frame: the
	// start command carries the coordinator's current job time, so Born
	// stamps and sink latency observations agree across workers within
	// one one-way control-frame latency.
	eng.SetClockOffset(c.CoordNow)
	eng.Start()
}

// handleStop gracefully ends the current job but leaves the worker
// serving: every piece of job-scoped state — stash, retired set,
// placement, data links, coordinator connection — is reset, so a
// re-assigned daemon cannot drop or cross-contaminate a later job's
// tuples through instance IDs it saw in a previous one.
func (w *Worker) handleStop() {
	w.mu.Lock()
	eng := w.eng
	w.setEngine(nil)
	w.started = false
	rs := w.reportStop
	w.reportStop = nil
	coord := w.coord
	w.coord = nil
	w.stash = make(map[plan.InstanceID][]state.Batch)
	w.retired = make(map[plan.InstanceID]bool)
	w.orphan = false
	w.standby = ""
	rdl := w.redialStop
	w.redialStop = nil
	w.mu.Unlock()
	if rdl != nil {
		close(rdl)
	}
	w.pmu.Lock()
	w.placement = make(map[plan.InstanceID]string)
	w.pmu.Unlock()
	if rs != nil {
		close(rs)
	}
	if eng != nil {
		eng.Stop()
	}
	w.closeLinks()
	if coord != nil {
		coord.Close()
	}
}

func (w *Worker) handleReroute(c *Control) (int, error) {
	eng := w.Engine()
	if eng == nil {
		return 0, fmt.Errorf("dist: reroute before assignment")
	}
	routing, err := decodeRouting(c.Routing)
	if err != nil {
		return 0, err
	}
	newInsts := make([]plan.InstanceID, len(c.New))
	w.pmu.Lock()
	for i, p := range c.New {
		newInsts[i] = p.Inst
		w.placement[p.Inst] = p.Addr
	}
	for _, v := range c.Victims {
		delete(w.placement, v)
	}
	w.pmu.Unlock()
	w.mu.Lock()
	for _, v := range c.Victims {
		w.retired[v] = true
	}
	w.mu.Unlock()
	w.pruneLinks()
	return eng.ApplyReroute(c.Op, routing, newInsts, c.Inherit, c.TrimAcks), nil
}

func (w *Worker) handleDeploy(c *Control) (int, error) {
	cp, err := state.DecodeCheckpoint(stream.NewDecoder(c.Checkpoint), w.codec)
	if err != nil {
		return 0, err
	}
	routing, err := decodeRouting(c.Routing)
	if err != nil {
		return 0, err
	}
	w.pmu.Lock()
	w.placement[cp.Instance] = w.self
	w.pmu.Unlock()
	// Adoption and stash drain are atomic under the worker lock, so a
	// racing deliver either queues on the adopted node or stashes before
	// the drain — never after it.
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.eng == nil {
		return 0, fmt.Errorf("dist: deploy before assignment")
	}
	replay := w.stash[cp.Instance]
	delete(w.stash, cp.Instance)
	return w.eng.AdoptInstance(cp, routing, replay)
}

func (w *Worker) handleRetire(c *Control) error {
	eng := w.Engine()
	if eng == nil {
		return fmt.Errorf("dist: retire before assignment")
	}
	for _, v := range c.Victims {
		w.mu.Lock()
		w.retired[v] = true
		w.mu.Unlock()
		w.pmu.Lock()
		delete(w.placement, v)
		w.pmu.Unlock()
		if !c.Final {
			if err := eng.Retire(v); err != nil {
				return err
			}
			continue
		}
		// Final retire: stop first, capture everything the instance ever
		// processed, ship the capture to the coordinator's store. The
		// transition plans from this checkpoint, so it has no
		// post-checkpoint window.
		cp, err := eng.RetireFinal(v)
		if err != nil {
			return err
		}
		if err := (&shipSink{w: w}).Ship(cp); err != nil {
			return err
		}
	}
	return nil
}

// ---- outbound paths ----

// shipSink forwards checkpoints to the coordinator's store, a delta with
// its base and deleted keys beside it. With no coordinator link (orphan
// mode) it accepts no periodic round, so nothing is captured, and a ship
// is refused before anything is encoded, as is one whose send fails: the
// engine keeps owing a full checkpoint, and a reborn coordinator
// collects the survivors' state through reconcile's barrier or, for a
// worker adopted by redial, the next periodic checkpoint.
type shipSink struct{ w *Worker }

// link returns the coordinator link, nil in orphan mode.
func (s *shipSink) link() *transport.Peer {
	s.w.mu.Lock()
	defer s.w.mu.Unlock()
	if s.w.orphan {
		return nil
	}
	return s.w.coord
}

// Accepts implements engine.BackupSink.
func (s *shipSink) Accepts() bool { return s.link() != nil }

// Ship implements engine.BackupSink. A body too large for one frame is
// returned as the error it is, like every other failed send.
func (s *shipSink) Ship(cp *state.Checkpoint) error {
	coord := s.link()
	if coord == nil {
		return errors.New("dist: no coordinator link")
	}
	body, err := encodeShip(&Control{Kind: MsgShip, From: s.w.self, Base: cp.Base, Deleted: cp.Deleted}, cp, s.w.codec)
	if err != nil {
		return err
	}
	return coord.SendControl(body)
}

// ---- coordinator failover (worker side) ----

// armCoordHeartbeat heartbeats the coordinator link at the same cadence
// the coordinator heartbeats workers, so both sides detect a dead peer
// within the same horizon. Safe to call with w.mu held.
func (w *Worker) armCoordHeartbeat(peer *transport.Peer, detectMs int64) {
	if detectMs <= 0 {
		return
	}
	hb := time.Duration(detectMs) * time.Millisecond / 3
	if hb < 10*time.Millisecond {
		hb = 10 * time.Millisecond
	}
	peer.HeartbeatEvery = hb
	peer.MissLimit = 2
	peer.OnDown = func() { w.onCoordDown(peer) }
	peer.StartHeartbeat()
}

// onCoordDown puts the worker in orphan mode: the engine keeps running
// and batches keep flowing — only checkpoint ships are refused. With
// a standby address, a redial loop announces this worker until a
// coordinator adopts it.
func (w *Worker) onCoordDown(peer *transport.Peer) {
	w.mu.Lock()
	if w.killed || w.coord != peer {
		// A stale detector from a link we already replaced.
		w.mu.Unlock()
		return
	}
	w.orphan = true
	if w.redialStop == nil && w.standby != "" {
		w.redialStop = make(chan struct{})
		go w.redialLoop(w.standby, w.redialStop)
	}
	w.mu.Unlock()
	peer.Close()
}

// redialLoop periodically dials the standby address and announces this
// worker with an unsolicited MsgReattach (Seq 0). The coordinator that
// answers dials our listener back and sends MsgResume; handleResume
// re-homes the control link and ends orphan mode, which ends this loop.
func (w *Worker) redialLoop(addr string, stop chan struct{}) {
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-w.died:
			return
		case <-tick.C:
		}
		w.mu.Lock()
		orphan := w.orphan
		w.mu.Unlock()
		if !orphan {
			return
		}
		peer, err := transport.DialWith(addr, w.codec, w.tm)
		if err != nil {
			continue
		}
		if body, err := encodeControl(w.inventory(0)); err == nil {
			_ = peer.SendControl(body)
		}
		peer.Close()
	}
}

// inventory assembles this worker's MsgReattach: what it actually
// hosts and whether its engine is running.
func (w *Worker) inventory(seq uint64) *Control {
	ctl := &Control{Kind: MsgReattach, Seq: seq, From: w.self}
	w.mu.Lock()
	eng := w.eng
	ctl.Running = w.started
	w.mu.Unlock()
	if eng != nil {
		ctl.Hosted = eng.Local()
	}
	return ctl
}

// handleResume processes a (reborn) coordinator's announcement: re-home
// the control link and reply with this worker's actual inventory so the
// coordinator can reconcile its journal against reality. MsgResume only
// ever comes from a coordinator that just (re)started at CoordAddr, so
// any existing link — even one pointing at that same address — is stale
// by definition: a write into the dead coordinator's half-closed socket
// can report success before the RST arrives, silently losing the reply.
// Always dial fresh. The engine is never restarted — streaming continues
// through the whole exchange.
func (w *Worker) handleResume(c *Control) {
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	peer, err := transport.DialWith(c.CoordAddr, w.codec, w.tm)
	if err != nil {
		// Best effort: announce over whatever link remains; the
		// coordinator re-sends MsgResume when it adopts us.
		w.sendToCoord(w.inventory(c.Seq))
		return
	}
	w.armCoordHeartbeat(peer, c.DetectMillis)
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		peer.Close()
		return
	}
	old := w.coord
	w.coord = peer
	w.orphan = false
	if c.StandbyAddr != "" {
		w.standby = c.StandbyAddr
	}
	rdl := w.redialStop
	w.redialStop = nil
	w.mu.Unlock()
	if rdl != nil {
		close(rdl)
	}
	if old != nil && old != peer {
		old.Close()
	}
	w.sendToCoord(w.inventory(c.Seq))
}

// linkRouter is the engine's Remote: it resolves the destination
// instance to a worker and hands the batch to that worker's FIFO link.
// Self-addressed batches (an instance planned here but not yet
// deployed) take the stash path directly.
type linkRouter struct{ w *Worker }

func (r *linkRouter) Deliver(b state.Batch) {
	w := r.w
	w.pmu.RLock()
	addr := w.placement[b.To]
	w.pmu.RUnlock()
	switch addr {
	case "":
		// Unknown destination (stale table racing a reroute): drop — the
		// tuples are retained in the sender's output buffer and replayed
		// once the new routing lands.
	case w.self:
		w.deliver(b)
	default:
		if pl := w.link(addr); pl != nil {
			pl.enqueue(b)
		}
	}
}

// peerLink is one outbound data connection with an async writer, so the
// emitting node goroutine never blocks on the network — it blocks on
// the bounded queue, which drains at the speed the receiving worker
// reads its end of the connection: a receiver whose node's input is
// full stops reading, the writer stalls in its send, the queue fills
// and the emitter waits. Teardown closes done and never q: engine and
// listener goroutines may still be enqueueing, and a send racing the
// end of the link is a dropped batch (retained upstream), not a send on
// a closed channel.
type peerLink struct {
	addr string
	q    chan state.Batch
	done chan struct{}
}

func (pl *peerLink) enqueue(b state.Batch) {
	select {
	case pl.q <- b:
	case <-pl.done:
	}
}

// link returns the outbound link toward addr, creating it on first use;
// nil once the job's links are torn down, so a late sender cannot leave
// a writer goroutine behind.
func (w *Worker) link(addr string) *peerLink {
	w.lmu.Lock()
	defer w.lmu.Unlock()
	if w.links == nil {
		return nil
	}
	if pl := w.links[addr]; pl != nil {
		return pl
	}
	// 256 batches ride out the writer's time inside one send without
	// stalling the emitter, and bound what a link to a dead peer holds.
	pl := &peerLink{addr: addr, q: make(chan state.Batch, 256), done: make(chan struct{})}
	w.links[addr] = pl
	go w.runLink(pl)
	return pl
}

// closeLinks ends the job's outbound links: their writers exit and
// link refuses to create new ones until the next assignment.
func (w *Worker) closeLinks() {
	w.lmu.Lock()
	for addr := range w.links {
		w.dropLink(addr)
	}
	w.links = nil
	w.lmu.Unlock()
}

// dropLink ends the link toward addr: its writer exits, whatever it had
// queued is dropped, and senders waiting on its queue are released.
//
// seep:locks w.lmu
func (w *Worker) dropLink(addr string) {
	close(w.links[addr].done)
	delete(w.links, addr)
}

// pruneLinks closes every link to an address no instance is placed on
// any more — a worker whose last instance a reroute just moved away,
// because it died or was scaled in — and drops what the link had queued:
// those tuples are retained upstream and the reroute replays them. A
// link left to drain toward a dead peer would take maxAttempts re-dials
// per batch and hold every emitter that routes through it meanwhile.
// Runs on the control goroutine, the only writer of placement.
func (w *Worker) pruneLinks() {
	w.pmu.RLock()
	placed := make(map[string]bool, len(w.placement))
	for _, addr := range w.placement {
		placed[addr] = true
	}
	w.pmu.RUnlock()
	w.lmu.Lock()
	for addr := range w.links {
		if !placed[addr] {
			w.dropLink(addr)
		}
	}
	w.lmu.Unlock()
}

func (w *Worker) runLink(pl *peerLink) {
	// A batch is retried across re-dials before it is ever dropped:
	// resending a batch the receiver may already have processed is safe
	// (its per-upstream TS watermark discards the duplicates), so a
	// transient connection loss — one corrupt frame makes the remote
	// listener drop the connection, a TCP reset, a restart — costs a
	// reconnect, not data. Only a peer that stays unreachable through
	// every attempt (≈2 s, comfortably past the default heartbeat
	// detection horizon) loses the batch; by then the coordinator has
	// declared one side down and recovery replays from the retained
	// upstream buffers.
	const (
		maxAttempts  = 5
		retryBackoff = 400 * time.Millisecond
	)
	var p *transport.Peer
	defer func() {
		if p != nil {
			p.Close()
		}
	}()
	var downUntil time.Time
	for {
		var b state.Batch
		select {
		case b = <-pl.q:
		case <-pl.done:
			return
		}
		// A batch still unsent after maxAttempts is dropped: retention
		// and recovery cover it.
		for attempt := 0; attempt < maxAttempts; attempt++ {
			if p == nil {
				if wait := time.Until(downUntil); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-pl.done:
						t.Stop()
						return
					}
				}
				peer, err := transport.DialWith(pl.addr, w.codec, w.tm)
				if err != nil {
					downUntil = time.Now().Add(retryBackoff)
					continue
				}
				p = peer
			}
			if err := p.SendBatch(b); err != nil {
				// The send already retried with one re-dial; rebuild the
				// peer and try again after a backoff.
				p.Close()
				p = nil
				downUntil = time.Now().Add(retryBackoff)
				continue
			}
			break
		}
		// Encoded into the connection's write buffer (or given up on):
		// the link was the batch's last owner.
		b.Recycle()
	}
}

// reportLoop streams utilisation reports (input-queue backpressure, the
// live engine's CPU proxy) and worker counters to the coordinator.
func (w *Worker) reportLoop(every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	w.mu.Lock()
	stop := w.reportStop
	w.mu.Unlock()
	if stop == nil {
		return
	}
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			w.sendReport()
		}
	}
}

func (w *Worker) sendReport() {
	eng := w.Engine()
	if eng == nil {
		return
	}
	w.sendToCoord(&Control{Kind: MsgReport, From: w.self, Reports: eng.UtilReports(), Stats: w.Stats()})
}
