// Package flow is a flow-level (fluid) simulator for large-scale scale-out
// experiments. Where the tuple-level simulator (internal/sim) executes
// every tuple through real operator code, the flow simulator tracks
// *rates* through the execution graph: each operator instance has a
// per-tuple CPU cost and a backlog, and queueing, utilisation, scale-out
// and VM-pool dynamics evolve in fixed ticks of virtual time.
//
// This is the substitution for the paper's §6.1 50-VM Amazon EC2 runs
// of the Linear Road Benchmark at up to 600,000 tuples/s (≈1.2 G tuples
// over a 2000 s run), which are infeasible to simulate tuple-by-tuple.
// The control plane driving the experiments —
// control.Detector with the §5.1 policy, the VM pool of §5.2 — is the
// same code used by the tuple-level simulator.
package flow

import (
	"fmt"
	"math"
	"slices"

	"seep/internal/control"
	"seep/internal/metrics"
	"seep/internal/plan"
	"seep/internal/sim"
)

// OpConfig describes one logical operator in the flow graph.
type OpConfig struct {
	// ID names the operator.
	ID plan.OpID
	// Role is plan.RoleSource, RoleSink, RoleStateless or RoleStateful.
	Role string
	// CostPerTuple is the CPU cost units consumed per input tuple.
	CostPerTuple float64
	// Selectivity is output tuples per input tuple (default 1).
	Selectivity float64
	// Initial is the number of instances at deployment (default 1).
	Initial int
	// Max caps scale out (0 = unbounded).
	Max int
	// Stateful delays a new instance's activation by
	// Config.RestoreDelayStatefulMillis, for its state's restore.
	Stateful bool
}

// Edge connects two operators; Fraction is the share of the upstream
// output stream routed to this downstream (1.0 for a broadcast-free
// linear chain; the LRB forwarder splits by tuple type).
type Edge struct {
	From, To plan.OpID
	Fraction float64
}

// Config parameterises a flow-level experiment.
type Config struct {
	Seed int64
	// Ops and Edges define the query.
	Ops   []OpConfig
	Edges []Edge
	// Rate is the aggregate source input rate profile (tuples/s).
	Rate func(tMillis int64) float64
	// SourceCap caps the rate a single deployment can inject/collect
	// (the paper's sources and sinks saturate at 600 k tuples/s due to
	// serialisation). 0 = uncapped.
	SourceCap float64
	// TickMillis is the integration step (default 250 ms).
	TickMillis int64
	// DurationMillis is the experiment length.
	DurationMillis int64
	// VMCapacity is cost units/s per VM (default 1).
	VMCapacity float64
	// Policy is the scaling policy; zero value disables dynamic scale
	// out (manual/static allocation).
	Policy control.Policy
	// Pool configures the VM pool.
	Pool sim.PoolConfig
	// CheckpointIntervalMillis sets the replay window penalty applied to
	// the new instances at a scale-out switch (default 5000).
	CheckpointIntervalMillis int64
	// OpenLoop, when true, bounds per-instance backlogs and drops excess
	// tuples (the map/reduce experiment); closed loop lets backlogs grow.
	OpenLoop bool
	// QueueBoundSeconds bounds the backlog (in seconds of service) in
	// open-loop mode (default 2 s).
	QueueBoundSeconds float64
	// RestoreDelayStatefulMillis delays a stateful instance's activation
	// at scale out (state partitioning + restore; default 1500).
	RestoreDelayStatefulMillis int64
	// QueueQuantumMillis is the scheduling/batching granularity that
	// converts utilisation into per-tuple waiting time: tuples on a VM
	// running at utilisation ρ wait ≈ ρ/(1-ρ) quanta (buffer flushes,
	// scheduler slices). Default 25 ms.
	QueueQuantumMillis float64
	// DisruptMillis is how long a scale-out switch disrupts the affected
	// operator's stream: upstream operators are stopped while routing
	// and buffers are repartitioned, and buffered tuples replay
	// (Algorithm 3 lines 9-14). Frequent scale outs (low δ) therefore
	// raise the higher latency percentiles — the left half of Fig. 9.
	// Default 2000 ms.
	DisruptMillis int64
	// ReportNoise is the standard deviation of measurement noise on CPU
	// utilisation reports (shared-host "stolen time", sampling jitter,
	// §5.1). With a very low threshold δ this noise keeps re-triggering
	// scale outs — the churn the paper observes at δ=10%. Default 0.03.
	ReportNoise float64
}

func (c Config) withDefaults() Config {
	if c.TickMillis == 0 {
		c.TickMillis = 250
	}
	if c.VMCapacity == 0 {
		c.VMCapacity = 1.0
	}
	if c.CheckpointIntervalMillis == 0 {
		c.CheckpointIntervalMillis = 5_000
	}
	if c.QueueBoundSeconds == 0 {
		c.QueueBoundSeconds = 2.0
	}
	if c.RestoreDelayStatefulMillis == 0 {
		c.RestoreDelayStatefulMillis = 1_500
	}
	if c.QueueQuantumMillis == 0 {
		c.QueueQuantumMillis = 25
	}
	if c.DisruptMillis == 0 {
		c.DisruptMillis = 1_500
	}
	if c.ReportNoise == 0 {
		c.ReportNoise = 0.03
	}
	if c.Pool.Size == 0 {
		c.Pool.Size = 3
	}
	return c
}

// instance is one running partition of an operator.
type instance struct {
	id      plan.InstanceID
	backlog float64 // queued tuples
	// activatedAt allows a grace period before reporting utilisation.
	activatedAt int64
}

type opState struct {
	cfg       OpConfig
	instances []*instance
	nextPart  int
	inRate    float64
	outRate   float64
	// scaling marks an in-flight scale out (victim → pending VM).
	scaling map[plan.InstanceID]bool
	// disruptUntil marks the end of the current scale-out switch window
	// during which this operator's stream is paused/replaying.
	disruptUntil int64
}

// Result carries the experiment outputs in the shape the paper plots.
type Result struct {
	// InputRate, Throughput (tuples/s at sink), and VMs over time.
	InputRate  *metrics.TimeSeries
	Throughput *metrics.TimeSeries
	VMs        *metrics.TimeSeries
	// LatencyTS is the per-tick end-to-end latency estimate (ms).
	LatencyTS *metrics.TimeSeries
	// Latency aggregates per-tick latency samples for percentiles.
	Latency *metrics.Histogram
	// OpProcessed records, per operator, the processed tuple rate over
	// time ("tuples consumed/second" in the open-loop experiment).
	OpProcessed map[plan.OpID]*metrics.TimeSeries
	// Dropped counts open-loop tuple drops.
	Dropped float64
	// FinalVMs is the allocation at the end of the run.
	FinalVMs int
	// ScaleOuts counts completed scale-out operations.
	ScaleOuts int
}

// Runner executes a flow-level experiment.
type Runner struct {
	cfg      Config
	s        *sim.Sim
	pool     *sim.Pool
	ops      map[plan.OpID]*opState
	order    []plan.OpID
	incoming map[plan.OpID][]Edge
	scaler   *control.Scaler
	res      *Result
	// reported accumulates per-instance utilisation between policy
	// reports (averaged over the report window).
	utilAccum map[plan.InstanceID]float64
	utilTicks int
}

// NewRunner validates the graph and prepares a runner.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	r := &Runner{
		cfg:       cfg,
		s:         sim.New(cfg.Seed),
		ops:       make(map[plan.OpID]*opState),
		incoming:  make(map[plan.OpID][]Edge),
		utilAccum: make(map[plan.InstanceID]float64),
		res: &Result{
			InputRate:   &metrics.TimeSeries{},
			Throughput:  &metrics.TimeSeries{},
			VMs:         &metrics.TimeSeries{},
			LatencyTS:   &metrics.TimeSeries{},
			Latency:     &metrics.Histogram{},
			OpProcessed: make(map[plan.OpID]*metrics.TimeSeries),
		},
	}
	r.pool = sim.NewPool(r.s, cfg.Pool)
	for _, oc := range cfg.Ops {
		if oc.Selectivity == 0 {
			oc.Selectivity = 1
		}
		if oc.Initial <= 0 {
			oc.Initial = 1
		}
		if _, dup := r.ops[oc.ID]; dup {
			return nil, fmt.Errorf("flow: duplicate operator %q", oc.ID)
		}
		st := &opState{cfg: oc, scaling: make(map[plan.InstanceID]bool)}
		for i := 0; i < oc.Initial; i++ {
			st.nextPart++
			st.instances = append(st.instances, &instance{
				id: plan.InstanceID{Op: oc.ID, Part: st.nextPart},
			})
		}
		r.ops[oc.ID] = st
		r.order = append(r.order, oc.ID)
	}
	for _, e := range cfg.Edges {
		if _, ok := r.ops[e.From]; !ok {
			return nil, fmt.Errorf("flow: edge from unknown %q", e.From)
		}
		if _, ok := r.ops[e.To]; !ok {
			return nil, fmt.Errorf("flow: edge to unknown %q", e.To)
		}
		if e.Fraction == 0 {
			e.Fraction = 1
		}
		r.incoming[e.To] = append(r.incoming[e.To], e)
	}
	// Topological order via repeated scan (graphs are tiny).
	r.order = r.topoOrder()
	if r.order == nil {
		return nil, fmt.Errorf("flow: graph has a cycle")
	}
	return r, nil
}

func (r *Runner) topoOrder() []plan.OpID {
	indeg := make(map[plan.OpID]int)
	for id := range r.ops {
		indeg[id] = len(r.incoming[id])
	}
	var frontier []plan.OpID
	for _, oc := range r.cfg.Ops {
		if indeg[oc.ID] == 0 {
			frontier = append(frontier, oc.ID)
		}
	}
	var out []plan.OpID
	for len(frontier) > 0 {
		id := frontier[0]
		frontier = frontier[1:]
		out = append(out, id)
		for _, oc := range r.cfg.Ops {
			for _, e := range r.incoming[oc.ID] {
				if e.From == id {
					indeg[oc.ID]--
					if indeg[oc.ID] == 0 {
						frontier = append(frontier, oc.ID)
					}
				}
			}
		}
	}
	if len(out) != len(r.ops) {
		return nil
	}
	return out
}

// Run executes the experiment and returns its result.
func (r *Runner) Run() *Result {
	cfg := r.cfg
	if cfg.Policy.ReportEveryMillis > 0 {
		r.scaler = control.NewScaler(cfg.Policy, nil)
		r.s.Every(cfg.Policy.ReportEveryMillis, func() bool {
			r.policyRound()
			return true
		})
	}
	r.s.Every(cfg.TickMillis, func() bool {
		r.tick()
		return r.s.Now() < cfg.DurationMillis
	})
	r.s.RunUntil(cfg.DurationMillis)
	r.res.FinalVMs = r.totalVMs()
	return r.res
}

func (r *Runner) totalVMs() int {
	n := 0
	for _, st := range r.ops {
		n += len(st.instances)
	}
	return n
}

// tick integrates one step of the fluid model.
func (r *Runner) tick() {
	now := r.s.Now()
	dt := float64(r.cfg.TickMillis) / 1000.0
	latency := 0.0 // end-to-end ms along the pipeline

	for _, id := range r.order {
		st := r.ops[id]
		switch st.cfg.Role {
		case plan.RoleSource:
			rate := r.cfg.Rate(now)
			if r.cfg.SourceCap > 0 && rate > r.cfg.SourceCap {
				rate = r.cfg.SourceCap
			}
			st.inRate = rate
			st.outRate = rate * st.cfg.Selectivity
			r.res.InputRate.Add(now, rate)
			continue
		default:
		}
		in := 0.0
		for _, e := range r.incoming[id] {
			in += r.ops[e.From].outRate * e.Fraction
		}
		st.inRate = in
		if st.cfg.Role == plan.RoleSink {
			st.outRate = in
			r.res.Throughput.Add(now, in)
			continue
		}
		n := len(st.instances)
		if n == 0 {
			st.outRate = 0
			continue
		}
		share := in / float64(n)
		serviceRate := r.cfg.VMCapacity / st.cfg.CostPerTuple // tuples/s per instance
		processedTotal := 0.0
		worstWait := 0.0
		for _, ins := range st.instances {
			arrivals := share * dt
			capTuples := serviceRate * dt
			avail := ins.backlog + arrivals
			processed := math.Min(avail, capTuples)
			ins.backlog = avail - processed
			if r.cfg.OpenLoop {
				bound := r.cfg.QueueBoundSeconds * serviceRate
				if ins.backlog > bound {
					r.res.Dropped += ins.backlog - bound
					ins.backlog = bound
				}
			}
			processedTotal += processed
			// Utilisation: offered load over capacity; queued backlog
			// forces ≥ 1 to mirror the VM model's accounting.
			u := (share * st.cfg.CostPerTuple) / r.cfg.VMCapacity
			if ins.backlog > serviceRate*0.01 { // >10 ms of queue
				if u < 1 {
					u = 1 + ins.backlog/(serviceRate*10)
				}
			}
			r.utilAccum[ins.id] += u
			// Queue wait for a tuple arriving now: transient backlog plus
			// the steady-state queueing delay ρ/(1-ρ) scheduling quanta,
			// so running instances hot (high δ) costs latency even
			// without a persistent backlog — the right half of Fig. 9.
			wait := ins.backlog / serviceRate * 1000 // ms
			if rho := math.Min(u, 0.95); rho < 1 {
				wait += r.cfg.QueueQuantumMillis * rho / (1 - rho)
			}
			if wait > worstWait {
				worstWait = wait
			}
		}
		st.outRate = processedTotal / dt * st.cfg.Selectivity
		ts := r.res.OpProcessed[id]
		if ts == nil {
			ts = &metrics.TimeSeries{}
			r.res.OpProcessed[id] = ts
		}
		ts.Add(now, processedTotal/dt)
		// Tuples flowing through a mid-switch operator wait out the
		// remaining stop/replay window.
		if st.disruptUntil > now {
			worstWait += float64(st.disruptUntil - now)
		}
		// Latency along the pipeline: service time plus the worst
		// per-instance queueing delay at this hop.
		svc := st.cfg.CostPerTuple / r.cfg.VMCapacity * 1000
		latency += svc + worstWait
	}
	r.utilTicks++
	// Sub-millisecond floor: network hops.
	latency += 2 * float64(len(r.order))
	r.res.LatencyTS.Add(now, latency)
	r.res.Latency.Observe(int64(latency))
	r.res.VMs.Add(now, float64(r.totalVMs()))
}

// policyRound reports windowed average utilisation and executes scale-out
// decisions.
func (r *Runner) policyRound() {
	if r.utilTicks == 0 {
		return
	}
	var reports []control.Report
	var ids []plan.InstanceID
	for id := range r.utilAccum {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, plan.InstanceID.Compare)
	for _, id := range ids {
		st := r.ops[id.Op]
		if st == nil || st.cfg.Role == plan.RoleSource || st.cfg.Role == plan.RoleSink {
			continue
		}
		// Grace period: a freshly activated instance is still digesting
		// its replay backlog; reporting it immediately would re-trigger
		// scale out before the split has had any effect.
		if grace := r.graceOf(id); grace {
			continue
		}
		util := r.utilAccum[id] / float64(r.utilTicks)
		if r.cfg.ReportNoise > 0 {
			util += r.s.Rand().NormFloat64() * r.cfg.ReportNoise
		}
		reports = append(reports, control.Report{Inst: id, Util: util})
	}
	r.utilAccum = make(map[plan.InstanceID]float64)
	r.utilTicks = 0
	splits, _ := r.scaler.Round(reports, control.View{Room: func(op plan.OpID) bool {
		return r.ops[op].cfg.Max <= 0 || len(r.ops[op].instances) < r.ops[op].cfg.Max
	}})
	for _, victim := range splits {
		r.scaleOut(victim)
	}
}

// graceOf reports whether an instance is within its post-activation
// grace period (two policy report windows).
func (r *Runner) graceOf(id plan.InstanceID) bool {
	st := r.ops[id.Op]
	if st == nil {
		return false
	}
	for _, ins := range st.instances {
		if ins.id == id {
			return ins.activatedAt > 0 && r.s.Now()-ins.activatedAt < 2*r.cfg.Policy.ReportEveryMillis
		}
	}
	return false
}

// scaleOut splits one instance in two: a VM is acquired from the pool;
// at the switch, the victim's backlog is divided between the two
// replacements and each replays the checkpoint window (§4.3), which
// appears as a transient backlog and thus a latency spike — the behaviour
// visible in the paper's Fig. 7.
func (r *Runner) scaleOut(victim plan.InstanceID) {
	st := r.ops[victim.Op]
	if st == nil || st.scaling[victim] {
		return
	}
	st.scaling[victim] = true
	r.pool.Acquire(func(vm *sim.VM) {
		activate := func() {
			delete(st.scaling, victim)
			r.scaler.Forget([]plan.InstanceID{victim})
			// The victim may have been replaced already (e.g. shrunk);
			// find it.
			idx := -1
			for i, ins := range st.instances {
				if ins.id == victim {
					idx = i
					break
				}
			}
			if idx < 0 {
				return
			}
			old := st.instances[idx]
			// Replay penalty: tuples processed since the last checkpoint
			// must be re-processed by the replacements.
			share := st.inRate / float64(len(st.instances))
			replay := share * float64(r.cfg.CheckpointIntervalMillis) / 1000.0
			half := (old.backlog + replay) / 2
			st.nextPart++
			a := &instance{id: plan.InstanceID{Op: victim.Op, Part: st.nextPart}, backlog: half, activatedAt: r.s.Now()}
			st.nextPart++
			b := &instance{id: plan.InstanceID{Op: victim.Op, Part: st.nextPart}, backlog: half, activatedAt: r.s.Now()}
			st.instances = append(st.instances[:idx], st.instances[idx+1:]...)
			st.instances = append(st.instances, a, b)
			// Disruption windows stack — each concurrent split stops the
			// upstream operators and replays buffers in turn — but cap at
			// three windows: splits of different instances repartition
			// disjoint key ranges and proceed mostly in parallel.
			if st.disruptUntil > r.s.Now() {
				st.disruptUntil += r.cfg.DisruptMillis
			} else {
				st.disruptUntil = r.s.Now() + r.cfg.DisruptMillis
			}
			if lim := r.s.Now() + 3*r.cfg.DisruptMillis; st.disruptUntil > lim {
				st.disruptUntil = lim
			}
			r.res.ScaleOuts++
		}
		if st.cfg.Stateful {
			// State partitioning and restore delay the switch.
			r.s.After(r.cfg.RestoreDelayStatefulMillis, activate)
		} else {
			activate()
		}
	})
}

// SetAllocation statically assigns n instances to an operator (the manual
// scale-out comparison of Fig. 10). Must be called before Run.
func (r *Runner) SetAllocation(op plan.OpID, n int) error {
	st := r.ops[op]
	if st == nil {
		return fmt.Errorf("flow: unknown operator %q", op)
	}
	if n < 1 {
		return fmt.Errorf("flow: allocation %d for %q", n, op)
	}
	st.instances = nil
	st.nextPart = 0
	for i := 0; i < n; i++ {
		st.nextPart++
		st.instances = append(st.instances, &instance{id: plan.InstanceID{Op: op, Part: st.nextPart}})
	}
	return nil
}

// Instances returns the current instance count for an operator.
func (r *Runner) Instances(op plan.OpID) int {
	if st := r.ops[op]; st != nil {
		return len(st.instances)
	}
	return 0
}
