package seep

import (
	"fmt"
	"sync"
	"time"

	"seep/internal/dist"
	"seep/internal/engine"
	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/transport"
	"seep/internal/wirecodec"
)

// Distributed returns the distributed runtime: a coordinator owning the
// plan, the authoritative checkpoint store and the scaling decisions,
// plus workers — separate hosts — each running a subset of the operator
// instances on a live engine, exchanging tuple batches over TCP. This is
// the deployment substrate the paper assumes: instances on real VMs,
// heartbeat failure detection (§5), and recovery/scale-out through the
// same state-management primitives as the in-process runtimes.
//
// Two modes:
//
//   - In-process loopback (default, WithWorkers(n)): the runtime spawns
//     n workers inside this process, each with its own TCP listener.
//     Every byte still crosses real sockets, failure detection is real
//     heartbeats, and Job.Fail kills a whole worker — development and
//     test mode.
//   - External daemons (WithWorkerAddrs + WithTopologyName): workers are
//     cmd/seep-worker processes (possibly on other hosts) whose
//     registries have the topology compiled in; the coordinator runs in
//     this process.
//
// Job.Fail models a VM failure: the worker hosting the instance is
// crash-stopped and everything it hosted is recovered by the heartbeat
// detector feeding the coordinator's event loop. Tuple payloads cross
// the wire gob-encoded by default — register payload types with
// RegisterPayloadType (library operator outputs are pre-registered).
func Distributed(opts ...Option) Runtime { return &distRuntime{cfg: buildConfig(opts)} }

type distRuntime struct{ cfg *runtimeConfig }

func (r *distRuntime) Name() string { return "dist" }

func (r *distRuntime) Deploy(t *Topology) (Job, error) {
	cfg := r.cfg
	if err := cfg.checkSubstrate("dist"); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.workersSet && len(cfg.workerAddrs) > 0 {
		return nil, fmt.Errorf("seep: WithWorkers and WithWorkerAddrs are mutually exclusive")
	}
	q, _, err := t.built()
	if err != nil {
		return nil, err
	}
	name := cfg.topoName
	if name == "" {
		name = "topology"
	}
	coordAddr := cfg.coordAddr
	if coordAddr == "" {
		coordAddr = "127.0.0.1:0"
	}
	coordCfg := dist.Config{
		Addr:            coordAddr,
		Topology:        name,
		Engine:          cfg.engineConfig(),
		DetectDelay:     cfg.detect,
		RecoveryPi:      cfg.recoveryPi,
		Policy:          cfg.policy,
		ScaleIn:         cfg.scaleIn,
		ControlPlaneDir: cfg.controlPlaneDir,
		StandbyAddr:     cfg.standbyAddr,
	}

	j := &distJob{}
	addrs := cfg.workerAddrs
	if len(addrs) == 0 {
		n := cfg.workers
		if n == 0 {
			n = 3
		}
		reg := topoRegistry{t: t}
		for i := 0; i < n; i++ {
			w, err := dist.NewWorker("127.0.0.1:0", reg, nil)
			if err != nil {
				j.killWorkers()
				return nil, err
			}
			j.workers = append(j.workers, w)
			addrs = append(addrs, w.Addr())
		}
	}
	coord, err := dist.NewCoordinator(coordCfg)
	if err != nil {
		j.killWorkers()
		return nil, err
	}
	if err := coord.Deploy(q, addrs); err != nil {
		coord.Close()
		j.killWorkers()
		return nil, err
	}
	j.coord = coord
	j.q = q
	j.coordCfg = coordCfg
	j.coordAddr = coord.Addr()
	return j, nil
}

// topoRegistry serves the deployed topology to in-process workers
// regardless of the requested name.
type topoRegistry struct{ t *Topology }

func (r topoRegistry) Lookup(string) (*plan.Query, map[plan.OpID]operator.Factory, []dist.SourceBinding, error) {
	q, f, err := r.t.built()
	return q, f, nil, err
}

// distJob adapts the coordinator + workers to the Job interface.
type distJob struct {
	workers []*dist.Worker // empty for external deployments

	// What a coordinator restart needs: the built query, the deploy-time
	// config and the original coordinator's concrete listen address
	// (restart-in-place — orphaned workers redial exactly there).
	q         *plan.Query
	coordCfg  dist.Config
	coordAddr string

	mu      sync.Mutex
	coord   *dist.Coordinator // replaced by RestartCoordinator
	started time.Time
	stopped bool
	faulted map[string]struct{} // worker addrs with an armed link fault
}

// co returns the current coordinator (RestartCoordinator swaps it).
func (j *distJob) co() *dist.Coordinator {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.coord
}

func (j *distJob) killWorkers() {
	for _, w := range j.workers {
		w.Kill()
	}
}

// KillCoordinator crash-stops the coordinator — kill -9, no goodbye:
// workers keep streaming worker-to-worker, go orphan on heartbeat loss
// and refuse their checkpoint ships until a coordinator resumes them.
func (j *distJob) KillCoordinator() error {
	if j.coordCfg.ControlPlaneDir == "" {
		return fmt.Errorf("seep: KillCoordinator requires WithControlPlaneDir (without a journal the coordinator cannot be restarted)")
	}
	j.co().Close()
	return nil
}

// RestartCoordinator rebuilds the coordinator from its journal on the
// dead one's address, reattaches the still-running workers without
// restarting them, and rolls back any transition caught in flight.
func (j *distJob) RestartCoordinator() error {
	if j.coordCfg.ControlPlaneDir == "" {
		return fmt.Errorf("seep: RestartCoordinator requires WithControlPlaneDir (without a journal there is no state to recover from)")
	}
	cfg := j.coordCfg
	cfg.Addr = j.coordAddr
	coord, err := dist.RecoverCoordinator(cfg, j.q)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.coord = coord
	j.mu.Unlock()
	return nil
}

func (j *distJob) Start() {
	j.mu.Lock()
	j.started = time.Now()
	j.mu.Unlock()
	_ = j.co().StartJob()
}

func (j *distJob) Stop() {
	j.mu.Lock()
	if j.stopped {
		j.mu.Unlock()
		return
	}
	j.stopped = true
	j.mu.Unlock()
	j.HealLinks()
	// Let in-flight recoveries settle before tearing the cluster down.
	deadline := time.Now().Add(5 * time.Second)
	for j.co().Pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	j.co().StopJob()
	j.co().Close()
	j.killWorkers()
}

func (j *distJob) Run(d time.Duration) {
	deadline := time.Now().Add(d)
	for j.co().Pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	rem := time.Until(deadline)
	if rem < 250*time.Millisecond {
		// Recoveries consumed the span: still give cross-worker replay a
		// moment to settle so post-Run assertions see restored state.
		rem = 250 * time.Millisecond
	}
	if len(j.workers) == 0 {
		// External workers: no processed-counter visibility; run the span.
		time.Sleep(rem)
		return
	}
	j.quiesce(100*time.Millisecond, rem)
}

// quiesce waits until no worker engine processes tuples for the settle
// window and no transition is pending.
func (j *distJob) quiesce(settle, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	last := j.totalProcessed()
	lastChange := time.Now()
	for time.Now().Before(deadline) {
		if j.co().Pending() > 0 {
			lastChange = time.Now()
		}
		time.Sleep(settle / 4)
		cur := j.totalProcessed()
		if cur != last {
			last = cur
			lastChange = time.Now()
			continue
		}
		if time.Since(lastChange) >= settle {
			return
		}
	}
}

func (j *distJob) totalProcessed() uint64 {
	var n uint64
	for _, w := range j.workers {
		if eng := w.Engine(); eng != nil {
			n += eng.TotalProcessed()
		}
	}
	return n
}

// engineHosting returns the engine of the in-process worker hosting
// inst, or an error naming why there is none: inst has no published
// placement (it is not live, or the coordinator declared its worker down
// and, being a source or sink, it was not recovered), its in-process
// worker was killed, or it is hosted by a worker outside this process.
func (j *distJob) engineHosting(inst InstanceID) (*engine.Engine, error) {
	addr := j.co().PlacementOf(inst)
	if addr == "" {
		return nil, fmt.Errorf("seep: %s has no placement: it is not live, or its worker was declared down and sources and sinks are not recovered", inst)
	}
	for _, w := range j.workers {
		if w.Addr() != addr {
			continue
		}
		if eng := w.Engine(); eng != nil {
			return eng, nil
		}
		return nil, fmt.Errorf("seep: %s is hosted by in-process worker %s, which was killed", inst, addr)
	}
	return nil, fmt.Errorf("seep: %s is hosted by external worker %s; bind sources in its registry (WorkerRegistry.RegisterSource)", inst, addr)
}

func (j *distJob) AddSource(op OpID, rate RateFunc, gen Generator) error {
	inst, err := sourceInstance(j.co().Manager(), op)
	if err != nil {
		return err
	}
	eng, err := j.engineHosting(inst)
	if err != nil {
		return err
	}
	return eng.AddSourceFunc(inst, rate, gen)
}

func (j *distJob) InjectBatch(op OpID, count int, gen Generator) error {
	inst, err := sourceInstance(j.co().Manager(), op)
	if err != nil {
		return err
	}
	eng, err := j.engineHosting(inst)
	if err != nil {
		return err
	}
	return eng.InjectBatch(inst, count, gen)
}

func (j *distJob) Fail(inst InstanceID) error { return j.co().Fail(inst) }

// hostAddrs returns the distinct worker addresses hosting op's live
// instances.
func (j *distJob) hostAddrs(op OpID) ([]string, error) {
	insts := j.co().Manager().Instances(op)
	if len(insts) == 0 {
		return nil, fmt.Errorf("seep: no instances of operator %q", op)
	}
	seen := make(map[string]struct{})
	var addrs []string
	for _, inst := range insts {
		addr := j.co().PlacementOf(inst)
		if addr == "" {
			continue
		}
		if _, dup := seen[addr]; dup {
			continue
		}
		seen[addr] = struct{}{}
		addrs = append(addrs, addr)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("seep: operator %q has no placed instances", op)
	}
	return addrs, nil
}

func (j *distJob) armLinkFault(op OpID, f transport.LinkFault) error {
	addrs, err := j.hostAddrs(op)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.faulted == nil {
		j.faulted = make(map[string]struct{})
	}
	for _, addr := range addrs {
		transport.SetLinkFault(addr, f)
		j.faulted[addr] = struct{}{}
	}
	j.mu.Unlock()
	return nil
}

// SlowLink delays every frame toward the workers hosting op's
// instances — data batches, acks and heartbeat probes alike. Keep the
// delay below the failure-detection horizon or the hosts will
// (correctly) be declared down.
func (j *distJob) SlowLink(op OpID, delay time.Duration) error {
	return j.armLinkFault(op, transport.LinkFault{Delay: delay})
}

// PartitionLink black-holes every frame toward the workers hosting
// op's instances. The coordinator's heartbeat probes starve, the
// detector declares the hosts down, and the ordinary recovery path
// replaces everything they ran — a partition costs detection time,
// never data (dropped batches sit in upstream output buffers and
// replay).
func (j *distJob) PartitionLink(op OpID) error {
	return j.armLinkFault(op, transport.LinkFault{Drop: true})
}

// HealLinks removes every link fault this job armed.
func (j *distJob) HealLinks() {
	j.mu.Lock()
	addrs := j.faulted
	j.faulted = nil
	j.mu.Unlock()
	for addr := range addrs {
		transport.ClearLinkFault(addr)
	}
}

func (j *distJob) ScaleOut(victim InstanceID, pi int) error {
	return j.co().ScaleOut(victim, pi)
}

func (j *distJob) ScaleIn(victims []InstanceID) error {
	return j.co().ScaleIn(victims)
}

func (j *distJob) Instances(op OpID) []InstanceID { return j.co().Manager().Instances(op) }

// OperatorOf is nil for an instance no in-process engine hosts, for
// any of engineHosting's causes.
func (j *distJob) OperatorOf(inst InstanceID) any {
	eng, err := j.engineHosting(inst)
	if err != nil {
		return nil
	}
	return eng.OperatorOf(inst)
}

func (j *distJob) OnSink(fn func(t Tuple)) {
	for _, w := range j.workers {
		if eng := w.Engine(); eng != nil {
			eng.OnSink = fn
		}
	}
}

func (j *distJob) MetricsSnapshot() Metrics {
	j.mu.Lock()
	var elapsed int64
	if !j.started.IsZero() {
		elapsed = time.Since(j.started).Milliseconds()
	}
	j.mu.Unlock()

	mgr := j.co().Manager()
	m := Metrics{
		ElapsedMillis: elapsed,
		Parallelism:   parallelismOf(mgr),
		Recoveries:    mgr.Records(),
		Merges:        mgr.Merges(),
		Checkpoints:   mgr.Backups().ShipStats(),
		Errors:        j.co().Errors(),
		Transport:     j.co().TransportStats(),
		ControlPlane:  j.co().ControlPlaneStats(),
	}
	add := func(s dist.WorkerStats) {
		m.SinkTuples += s.SinkTuples
		m.DuplicatesDropped += s.DupDropped
		m.Transport = m.Transport.Add(s.Transport)
		m.Backpressure.Add(s.Backpressure)
		m.CheckpointsRefused += s.CheckpointsRefused
	}
	if len(j.workers) == 0 {
		// External workers: the counters piggybacked on their utilisation
		// reports (requires WithPolicy to stream reports); the coordinator
		// keeps a dead worker's last report.
		for _, s := range j.co().WorkerStatsSnapshot() {
			add(s)
		}
		return m
	}
	// In-process workers are read directly; a killed one reports the
	// counters its engine ended on, so no sum goes backwards. Latency is
	// reported by the worker hosting the most sink samples (sink instances
	// are pinned, so in practice that is THE sink host).
	var bestCount uint64
	for _, w := range j.workers {
		add(w.Stats())
		if eng := w.Engine(); eng != nil {
			if s := eng.Latency.Summarize(); s.Count > bestCount {
				bestCount = s.Count
				m.Latency = s
			}
		}
	}
	return m
}

// RegisterPayloadType registers a concrete tuple-payload type for the
// distributed runtime's wire codec: the type gets a tag in the batch
// frame's payload registry (encoded as a gob blob under that tag) and
// is registered with encoding/gob for the tag-0 fallback. It returns the
// assigned wire tag. Registering the same type
// twice returns the original tag and an error (instead of gob.Register's
// panic on conflicting names). Every binary in the cluster (coordinator
// and workers) must register the same types in the same order; the
// library operators' output types are pre-registered. The return values
// may be ignored by callers that registered correctly at init time.
func RegisterPayloadType(v any) (uint8, error) { return wirecodec.Register(v) }

// DistWorker is a worker daemon host (see RunWorker).
type DistWorker = dist.Worker

// SourceSpec binds a generator to a source operator in a worker
// registry.
type SourceSpec = dist.SourceBinding

// WorkerRegistry holds the topologies a worker daemon can host,
// instantiated by name on the coordinator's assignment. Register every
// topology (and its source bindings) before RunWorker.
type WorkerRegistry struct {
	mu      sync.Mutex
	topos   map[string]*Topology
	sources map[string][]SourceSpec
}

// NewWorkerRegistry returns an empty registry.
func NewWorkerRegistry() *WorkerRegistry {
	return &WorkerRegistry{
		topos:   make(map[string]*Topology),
		sources: make(map[string][]SourceSpec),
	}
}

// Register adds a topology under a name.
func (r *WorkerRegistry) Register(name string, t *Topology) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.topos[name] = t
}

// RegisterSource binds a generator to a source operator of a registered
// topology: the worker hosting that source attaches it at Start. This is
// how external deployments inject data — the coordinator cannot ship Go
// functions.
func (r *WorkerRegistry) RegisterSource(name string, op OpID, rate RateFunc, gen Generator) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources[name] = append(r.sources[name], SourceSpec{Op: op, Rate: rate, Gen: gen})
}

// Lookup implements the worker registry contract.
func (r *WorkerRegistry) Lookup(name string) (*plan.Query, map[plan.OpID]operator.Factory, []dist.SourceBinding, error) {
	r.mu.Lock()
	t := r.topos[name]
	sources := r.sources[name]
	r.mu.Unlock()
	if t == nil {
		return nil, nil, nil, fmt.Errorf("seep: topology %q is not in this worker's registry", name)
	}
	q, f, err := t.built()
	return q, f, sources, err
}

// RunWorker starts a worker daemon listening on addr, serving the
// registry's topologies. It returns immediately; call Wait on the
// returned worker to block until the coordinator kills it.
func RunWorker(addr string, reg *WorkerRegistry) (*DistWorker, error) {
	return dist.NewWorker(addr, reg, nil)
}
