package dist

import (
	"fmt"
	"strings"
	"time"

	"seep/internal/controlplane"
	"seep/internal/core"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/transport"
)

// RecoverCoordinator rebuilds a coordinator from its control-plane
// journal: read the snapshot into plan + placement, reload the durable
// backup store, re-dial the journaled workers and reconcile the
// replayed state against each worker's actual inventory through the
// MsgResume/MsgReattach handshake. Workers are NOT restarted — they
// kept streaming through the old coordinator's death — and any
// journaled transition without a commit record rolls back through the
// abort-to-recovery path, so a crash between retire and deploy never
// strands a key range. Blocks until reconciliation completes (queued
// rollback recoveries may still be draining; Pending gates on them).
func RecoverCoordinator(cfg Config, q *plan.Query) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.ControlPlaneDir == "" {
		return nil, fmt.Errorf("dist: recovery requires Config.ControlPlaneDir")
	}
	began := time.Now()
	// Restart-in-place races the dying coordinator releasing its socket:
	// callers unblock when its loop stops, fractionally before its
	// listener closes. Retry the bind briefly rather than surface the
	// race.
	var (
		c   *Coordinator
		err error
	)
	for deadline := time.Now().Add(5 * time.Second); ; {
		c, err = newCoordinator(cfg)
		if err == nil {
			break
		}
		if !strings.Contains(err.Error(), "address already in use") || time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The journal the coordinator opened is the replay: one read of the
	// snapshot.
	rep, err := c.jn.Replayed()
	if err != nil {
		c.Close()
		return nil, err
	}
	if err := c.call(2*cfg.TransitionTimeout, func(done chan error) { c.startRecover(rep, q, began, done) }); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// dialWorker dials one worker and arms the heartbeat failure detector
// on the control link.
func (c *Coordinator) dialWorker(addr string) (*transport.Peer, error) {
	peer, err := transport.DialWith(addr, c.codec, c.tm)
	if err != nil {
		return nil, err
	}
	hb := c.cfg.DetectDelay / 3
	if hb < 10*time.Millisecond {
		hb = 10 * time.Millisecond
	}
	peer.HeartbeatEvery = hb
	peer.MissLimit = 2
	a := addr
	peer.OnDown = func() { c.post(event{kind: evDown, addr: a}) }
	peer.StartHeartbeat()
	return peer, nil
}

// startRecover runs on the loop: restore the manager's books from the
// journaled snapshot, reload the durable store, re-dial workers and
// begin the reattach handshake. done is answered when reconciliation
// finishes.
func (c *Coordinator) startRecover(rep *controlplane.Replayed, q *plan.Query, began time.Time, done chan error) {
	if c.mgr != nil {
		done <- fmt.Errorf("dist: already deployed")
		return
	}
	st := rep.State
	mgr, err := core.NewManager(q)
	if err == nil {
		err = mgr.RestoreBooks(st.Books)
	}
	if err != nil {
		done <- err
		return
	}
	c.q, c.mgr = q, mgr

	// Reload every shipped checkpoint from disk into the restored
	// manager's backup store. Torn files cost one backup each, not the
	// recovery; stale files of instances no longer live (a crash between
	// plan and cleanup) are swept here.
	ds, err := core.NewDurableStoreOver(mgr.Backups(), c.cfg.ControlPlaneDir, c.codec)
	if err != nil {
		done <- err
		return
	}
	c.dstore = ds
	owners, skipped, err := ds.LoadAll(mgr.BackupTarget)
	if err != nil {
		done <- err
		return
	}
	for _, sk := range skipped {
		c.pushErr("dist: replay: %v", sk)
	}
	for _, o := range owners {
		if !mgr.Live(o) {
			ds.Delete(o)
		}
	}

	for _, p := range st.Placements {
		c.placement[p.Inst] = p.Addr
	}
	c.order = append([]string(nil), st.Workers...)
	// Transition sequences stay monotonic across restarts, and the job
	// clock resumes from the journaled wall-clock start.
	c.seq = rep.LastSeq
	if st.Started {
		c.startAt = time.UnixMilli(st.StartUnixMillis)
	}
	c.mu.Lock()
	c.replayRecords = rep.Records
	c.replayMillis = time.Since(began).Milliseconds()
	c.mu.Unlock()

	for _, addr := range c.order {
		peer, err := c.dialWorker(addr)
		if err != nil {
			// The worker died while the coordinator was down; reconcile
			// hands its journaled instances to the recovery path.
			c.workers[addr] = &workerRef{}
			continue
		}
		c.workers[addr] = &workerRef{peer: peer, alive: true}
	}
	c.beginReattach(rep, began, done)
}

// beginReattach broadcasts MsgResume and collects every live worker's
// MsgReattach inventory before reconciling.
func (c *Coordinator) beginReattach(rep *controlplane.Replayed, began time.Time, done chan error) {
	t := &transition{seq: c.nextSeq(), reattach: true, done: done}
	c.trans = t
	c.invByWorker = make(map[string]*Control)
	t.waiting = c.broadcast(&Control{
		Kind:         MsgResume,
		Seq:          t.seq,
		CoordAddr:    c.ln.Addr(),
		CoordNow:     c.nowMillis(),
		StandbyAddr:  c.standbyAddr(),
		DetectMillis: c.cfg.DetectDelay.Milliseconds(),
	})
	if t.waiting == 0 {
		c.finish(t, fmt.Errorf("dist: resume reached no workers"))
		return
	}
	t.next = func() { c.reconcile(t, rep, began) }
	c.armTimeout(t)
}

// onReattach handles a worker inventory: either the Seq-correlated
// reply to the reattach handshake, or an unsolicited announcement from
// an orphaned worker that re-dialed the standby address. An unsolicited
// one that lands before startRecover has restored the books is dropped:
// the reborn coordinator dials every journaled worker itself.
//
// seep:replay
func (c *Coordinator) onReattach(ctl *Control) {
	if t := c.trans; t != nil && t.reattach && ctl.Seq == t.seq {
		c.invByWorker[ctl.From] = ctl
		t.waiting--
		if t.ready() {
			c.advance(t)
		}
		return
	}
	if c.mgr == nil {
		return
	}
	ref := c.workers[ctl.From]
	if ref != nil && ref.alive {
		// Already attached: a redial race with our own resume. The
		// worker keeps its current control link.
		return
	}
	// Adopt the orphan: dial it back, arm the detector and resume it
	// (the worker replies with a fresh inventory, which lands in the
	// branch above only during a handshake — an adoption outside one
	// terminates here because the worker is now alive).
	peer, err := c.dialWorker(ctl.From)
	if err != nil {
		return
	}
	if ref == nil {
		c.order = append(c.order, ctl.From)
	}
	c.workers[ctl.From] = &workerRef{peer: peer, alive: true}
	c.sendTo(ctl.From, &Control{
		Kind:         MsgResume,
		Seq:          0,
		CoordAddr:    c.ln.Addr(),
		CoordNow:     c.nowMillis(),
		StandbyAddr:  c.standbyAddr(),
		DetectMillis: c.cfg.DetectDelay.Milliseconds(),
	})
}

// reconcile aligns the replayed journal with each worker's actual
// inventory:
//
//   - engines that never started are started (the journal says the job
//     is running);
//   - strays — hosted but no longer placed — are retired;
//   - planned in-doubt transitions get a refresh reroute carrying the
//     journaled routing, victims and per-victim trim watermarks, so
//     workers repartition exactly as the plan intended;
//   - missing instances — placed in the journal but hosted nowhere —
//     roll back through the normal recovery path (FIFO per-worker
//     control queues guarantee the refresh lands first);
//   - workers that could not be re-dialed hand their instances to the
//     same recovery path a heartbeat death would.
//
// seep:replay
func (c *Coordinator) reconcile(t *transition, rep *controlplane.Replayed, began time.Time) {
	hosted := make(map[plan.InstanceID]string)
	for addr, inv := range c.invByWorker {
		for _, inst := range inv.Hosted {
			hosted[inst] = addr
		}
		if !c.startAt.IsZero() && !inv.Running {
			c.sendTo(addr, &Control{Kind: MsgStart, Seq: 0, CoordNow: c.nowMillis()})
		}
	}
	for inst, addr := range hosted {
		if c.placement[inst] != addr {
			c.sendTo(addr, &Control{Kind: MsgRetire, Seq: 0, Victims: []plan.InstanceID{inst}})
		}
	}
	for _, d := range rep.InDoubt {
		if !d.Planned || len(d.Victims) == 0 {
			// Unplanned intent: the graph never changed. Retired victims
			// (if the retire landed) surface as missing below and recover
			// individually; a crash before the retire rolls back to a
			// no-op.
			continue
		}
		op := d.Victims[0].Op
		r := c.mgr.Routing(op)
		if r == nil {
			continue
		}
		var newPl []controlplane.Placement
		for _, inst := range c.mgr.Instances(op) {
			if a := c.placement[inst]; a != "" {
				newPl = append(newPl, controlplane.Placement{Inst: inst, Addr: a})
			}
		}
		c.broadcast(&Control{
			Kind:     MsgReroute,
			Seq:      0,
			Op:       op,
			Routing:  state.MarshalRouting(r),
			New:      newPl,
			Victims:  d.Victims,
			TrimAcks: d.Trims,
		})
	}
	var missing []plan.InstanceID
	for inst, addr := range c.placement {
		inv := c.invByWorker[addr]
		if inv == nil {
			continue // worker down: gatherLost owns its instances
		}
		if hosted[inst] == addr {
			continue
		}
		spec := c.q.Op(inst.Op)
		if spec == nil {
			continue
		}
		if spec.Role == plan.RoleSource || spec.Role == plan.RoleSink {
			c.pushErr("dist: worker %s lost assumed-reliable %s across failover", addr, inst)
			delete(c.placement, inst)
			continue
		}
		missing = append(missing, inst)
	}
	c.recoverAll(missing)
	for _, addr := range c.order {
		if ref := c.workers[addr]; ref != nil && ref.peer == nil {
			c.gatherLost(addr)
		}
	}
	// Fresh barriers are how a reborn coordinator collects the state
	// that moved on while it was dead: each survivor ships a full
	// checkpoint into the reloaded store, one MsgBarrier per worker
	// (fire-and-forget; the periodic loop covers misses and workers
	// adopted later through the standby redial).
	for addr, inv := range c.invByWorker {
		var survivors []plan.InstanceID
		for _, inst := range inv.Hosted {
			spec := c.q.Op(inst.Op)
			if c.placement[inst] == addr && spec != nil && spec.Role != plan.RoleSource && spec.Role != plan.RoleSink {
				survivors = append(survivors, inst)
			}
		}
		if len(survivors) > 0 {
			c.sendTo(addr, &Control{Kind: MsgBarrier, Victims: survivors})
		}
	}
	c.mu.Lock()
	c.reattached = len(c.invByWorker)
	c.failoverMillis = time.Since(began).Milliseconds()
	c.mu.Unlock()
	c.finish(t, nil)
}
