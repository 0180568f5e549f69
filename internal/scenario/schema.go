package scenario

import (
	"fmt"
	"sort"
	"time"
)

// The scenario schema. A scenario file declares one topology, one
// deterministic workload, a timed event script and an assertions block,
// plus the substrates it runs on. Parse decodes and type-checks the
// YAML; Validate lint-checks the decoded scenario and returns every
// problem as a typed SchemaError, so `seep-scenario -validate` can
// report all of them at once.

// ErrorKind classifies a SchemaError.
type ErrorKind string

const (
	// ErrUnknownField: a key the schema does not define.
	ErrUnknownField ErrorKind = "unknown-field"
	// ErrMissingField: a required key is absent.
	ErrMissingField ErrorKind = "missing-field"
	// ErrBadValue: a key holds a value of the wrong type or range.
	ErrBadValue ErrorKind = "bad-value"
	// ErrUnknownEventKind: an event's kind is not in the event registry.
	ErrUnknownEventKind ErrorKind = "unknown-event-kind"
	// ErrUnknownOp: an event or assertion references an undeclared operator.
	ErrUnknownOp ErrorKind = "unknown-op"
	// ErrUndeclaredSink: a sink assertion references an operator that is
	// not a declared sink.
	ErrUndeclaredSink ErrorKind = "undeclared-sink"
	// ErrEventAfterEnd: an event is scheduled after the scenario ends.
	ErrEventAfterEnd ErrorKind = "event-after-end"
	// ErrUnknownFactory: a topology op names a factory kind the registry
	// does not have.
	ErrUnknownFactory ErrorKind = "unknown-factory"
	// ErrSubstrateRestricted: the scenario declares a substrate an event
	// kind cannot run on (e.g. partition-link outside Distributed).
	ErrSubstrateRestricted ErrorKind = "substrate-restricted"
	// ErrBadBound: a latency bound is non-positive or contradicts
	// another bound declared on the same sink.
	ErrBadBound ErrorKind = "bad-bound"
)

// SchemaError is one typed validation failure.
type SchemaError struct {
	Kind ErrorKind
	Path string // dotted location in the document, e.g. "events[2].kind"
	Msg  string
}

func (e *SchemaError) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.Path, e.Kind, e.Msg)
}

// Scenario is one decoded scenario file.
type Scenario struct {
	Name        string
	Description string
	Substrates  []string // "sim", "live", "dist"
	Seed        int64
	External    bool // external workers drive the workload (cmd/seep-worker)
	Duration    time.Duration

	Ops         []OpSpec
	Connections [][2]string // empty = linear chain in declaration order

	Options    Options
	Workload   *Workload
	Events     []Event
	Assertions Assertions
}

// OpSpec declares one operator of the topology.
type OpSpec struct {
	ID   string
	Kind string // factory name: source, sink, word-splitter, ...

	WindowMillis   int64 // word-counter, keyed-sum
	Parallelism    int
	MaxParallelism int
	Cost           float64
}

// Options maps onto the seep.With* option set (substrate-aware: the
// executor only passes each option to substrates that accept it).
type Options struct {
	CheckpointInterval    time.Duration
	CheckpointIntervalSet bool
	DetectDelay           time.Duration
	TimerInterval         time.Duration
	RecoveryParallelism   int
	Workers               int // Distributed only
	BatchSize             int
	BatchLinger           time.Duration
	QueueBound            int   // bounded input queues, in tuples (live/dist)
	MemoryLimitBytes      int64 // per-instance state ceiling before spilling (live/dist)
	DeltaCheckpoints      bool  // incremental checkpoints (dist ships them over the wire)
	Policy                *PolicySpec
	ScaleIn               *ScaleInSpec
	VMPool                *VMPoolSpec // Simulated only
}

// VMPoolSpec configures the simulator's pre-allocated VM pool (§5.2).
// Without it, every recovery and scale out pays the raw IaaS
// provisioning delay in virtual time.
type VMPoolSpec struct {
	Size      int
	Handoff   time.Duration
	Provision time.Duration
}

// PolicySpec configures the scale-out policy (seep.Policy).
type PolicySpec struct {
	Threshold          float64
	ConsecutiveReports int
	ReportEvery        time.Duration
}

// ScaleInSpec configures the scale-in policy (seep.ScaleInPolicy).
type ScaleInSpec struct {
	LowWatermark       float64
	ConsecutiveReports int
	MinPartitions      int
}

// Workload is the deterministic seeded workload: `tuples` words drawn
// from a vocabulary of `keys` words named prefix+index, with key-skew
// (0 = uniform; larger = more mass on low-index words). The draw is a
// pure function of (seed, tuple index), so the expected per-key counts
// are computable without running anything — that is what exact-counts
// assertions compare against.
type Workload struct {
	Source    string // source op the tuples enter through
	Tuples    int
	Keys      int
	KeyPrefix string  // default "w"
	Skew      float64 // zipf-like exponent, default 0

	// SustainedOverload re-injects the base workload this many extra
	// times, evenly spaced across the scenario duration, to hold the
	// pipeline saturated. The re-injections continue the same
	// deterministic tuple sequence, so exact-counts oracles stay valid.
	SustainedOverload int

	cdfCache []float64 // lazily built skewed CDF (workload.go)
}

// Event is one timed chaos action.
type Event struct {
	At   time.Duration
	Kind string
	Op   string

	Partition int           // kill-worker/fail-instance/scale-out: which instance (default 0)
	Pi        int           // scale-out: resulting partitions (default 2)
	Merge     int           // scale-in: how many partitions to merge (default 2)
	Delay     time.Duration // slow-link
	Tuples    int           // inject-burst
}

// Assertions is the scenario's pass/fail contract.
type Assertions struct {
	ExactCounts *ExactCountsAssert
	Recovery    *RecoveryAssert
	SinkLatency *SinkLatencyAssert
	MaxLatency  *MaxLatencyAssert
	QueueDepth  *QueueDepthAssert
	SpilledKeys *SpilledKeysAssert
	Counters    []CounterAssert
	Parallelism map[string]int
	AllowErrors bool // default false: Metrics.Errors must be empty
}

// ExactCountsAssert: the per-key counts held by op's instances must
// equal the workload's expected counts exactly (exactly-once across
// every fault in the script).
type ExactCountsAssert struct {
	Op string
}

// RecoveryAssert bounds the completed recoveries: at least Min, at most
// Max (Max < 0 = unbounded), each completing within Deadline of its
// detection (0 = no deadline).
type RecoveryAssert struct {
	Min      int
	Max      int
	Deadline time.Duration
}

// SinkLatencyAssert bounds sink-observed end-to-end latency.
type SinkLatencyAssert struct {
	Sink string
	Max  time.Duration // bound on the latency maximum (0 = unchecked)
	P99  time.Duration // bound on the 99th percentile (0 = unchecked)
}

// MaxLatencyAssert: a hard per-record ceiling on sink-observed
// end-to-end latency — the scenario fails if any single record took
// longer than Ceiling. This is the assertion chaos scripts use to
// declare "never stall longer than X" across a fault (e.g. a
// coordinator failover must not freeze the data path); sink-latency by
// contrast bounds the summary statistics and allows a looser max.
type MaxLatencyAssert struct {
	Sink    string
	Ceiling time.Duration
}

// QueueDepthAssert bounds the peak bounded-queue occupancy observed on
// any edge, in batches. It only means something with a queue-bound
// option set: the assertion is that backpressure held the queues under
// Max instead of letting them grow with the overload.
type QueueDepthAssert struct {
	Max int64 // required, positive
}

// SpilledKeysAssert bounds the cumulative keys spilled to disk: at
// least Min (proof the memory ceiling actually engaged), at most Max
// (Max < 0 = unbounded).
type SpilledKeysAssert struct {
	Min int64
	Max int64 // < 0 = unbounded
}

// CounterAssert bounds one Metrics counter: sink-tuples,
// duplicates-dropped, recoveries, merges or checkpoints.
type CounterAssert struct {
	Name string
	Min  int64
	Max  int64 // < 0 = unbounded
}

// eventKinds maps each event kind to the substrates it can run on
// (nil = all).
var eventKinds = map[string][]string{
	"kill-worker":    nil,
	"fail-instance":  nil,
	"scale-out":      nil,
	"scale-in":       nil,
	"inject-burst":   nil,
	"slow-link":      {"live", "dist"},
	"partition-link": {"dist"},
	"heal-links":     {"live", "dist"},

	// Coordinator faults exercise the durable control plane: only the
	// Distributed runtime has a coordinator process to lose.
	"kill-coordinator":    {"dist"},
	"restart-coordinator": {"dist"},
}

// opFreeKinds are event kinds that act on the runtime as a whole, not
// on one operator.
var opFreeKinds = map[string]bool{
	"heal-links":          true,
	"kill-coordinator":    true,
	"restart-coordinator": true,
}

// EventKinds returns the registered event kinds, sorted.
func EventKinds() []string {
	kinds := make([]string, 0, len(eventKinds))
	for k := range eventKinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

var counterNames = map[string]bool{
	"sink-tuples":        true,
	"duplicates-dropped": true,
	"recoveries":         true,
	"merges":             true,
	"checkpoints":        true,
}

var substrateNames = map[string]bool{"sim": true, "live": true, "dist": true}

// Parse decodes one scenario document. Decode errors (bad YAML, wrong
// types, unknown fields) are returned immediately; call Validate for
// the full lint pass.
func Parse(src string) (*Scenario, error) {
	doc, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	d := &decoder{}
	root := d.mapAt(doc, "")
	if d.err != nil {
		return nil, d.err
	}
	s := &Scenario{}
	s.Name = root.str("name")
	s.Description = root.str("description")
	for i, v := range root.list("substrates") {
		s.Substrates = append(s.Substrates, d.scalarStr(v, fmt.Sprintf("substrates[%d]", i)))
	}
	s.Seed = root.int("seed")
	s.External = root.boolean("external")
	s.Duration = root.duration("duration")

	if topo := root.child("topology"); topo != nil {
		for i, v := range topo.list("ops") {
			om := d.mapAt(v, fmt.Sprintf("topology.ops[%d]", i))
			op := OpSpec{
				ID:             om.str("id"),
				Kind:           om.str("kind"),
				WindowMillis:   om.int("window-millis"),
				Parallelism:    int(om.int("parallelism")),
				MaxParallelism: int(om.int("max-parallelism")),
				Cost:           om.float("cost"),
			}
			om.done()
			s.Ops = append(s.Ops, op)
		}
		for i, v := range topo.list("connections") {
			pair, ok := v.([]any)
			if !ok || len(pair) != 2 {
				d.fail(fmt.Sprintf("topology.connections[%d]", i), "want a [from, to] pair")
				continue
			}
			s.Connections = append(s.Connections, [2]string{
				d.scalarStr(pair[0], fmt.Sprintf("topology.connections[%d][0]", i)),
				d.scalarStr(pair[1], fmt.Sprintf("topology.connections[%d][1]", i)),
			})
		}
		topo.done()
	}

	if om := root.child("options"); om != nil {
		if om.has("checkpoint-interval") {
			s.Options.CheckpointInterval = om.duration("checkpoint-interval")
			s.Options.CheckpointIntervalSet = true
		}
		s.Options.DetectDelay = om.duration("detect-delay")
		s.Options.TimerInterval = om.duration("timer-interval")
		s.Options.RecoveryParallelism = int(om.int("recovery-parallelism"))
		s.Options.Workers = int(om.int("workers"))
		s.Options.BatchSize = int(om.int("batch-size"))
		s.Options.BatchLinger = om.duration("batch-linger")
		s.Options.QueueBound = int(om.int("queue-bound"))
		s.Options.MemoryLimitBytes = om.int("memory-limit-bytes")
		s.Options.DeltaCheckpoints = om.boolean("delta-checkpoints")
		if pm := om.child("policy"); pm != nil {
			s.Options.Policy = &PolicySpec{
				Threshold:          pm.float("threshold"),
				ConsecutiveReports: int(pm.int("consecutive-reports")),
				ReportEvery:        pm.duration("report-every"),
			}
			pm.done()
		}
		if sm := om.child("scale-in"); sm != nil {
			s.Options.ScaleIn = &ScaleInSpec{
				LowWatermark:       sm.float("low-watermark"),
				ConsecutiveReports: int(sm.int("consecutive-reports")),
				MinPartitions:      int(sm.int("min-partitions")),
			}
			sm.done()
		}
		if vm := om.child("vm-pool"); vm != nil {
			s.Options.VMPool = &VMPoolSpec{
				Size:      int(vm.int("size")),
				Handoff:   vm.duration("handoff"),
				Provision: vm.duration("provision"),
			}
			vm.done()
		}
		om.done()
	}

	if wm := root.child("workload"); wm != nil {
		s.Workload = &Workload{
			Source:            wm.str("source"),
			Tuples:            int(wm.int("tuples")),
			Keys:              int(wm.int("keys")),
			KeyPrefix:         wm.str("key-prefix"),
			Skew:              wm.float("skew"),
			SustainedOverload: int(wm.int("sustained-overload")),
		}
		if s.Workload.KeyPrefix == "" {
			s.Workload.KeyPrefix = "w"
		}
		wm.done()
	}

	for i, v := range root.list("events") {
		em := d.mapAt(v, fmt.Sprintf("events[%d]", i))
		ev := Event{
			At:        em.duration("at"),
			Kind:      em.str("kind"),
			Op:        em.str("op"),
			Partition: int(em.int("partition")),
			Pi:        int(em.int("pi")),
			Merge:     int(em.int("merge")),
			Delay:     em.duration("delay"),
			Tuples:    int(em.int("tuples")),
		}
		em.done()
		s.Events = append(s.Events, ev)
	}

	if am := root.child("assertions"); am != nil {
		if em := am.child("exact-counts"); em != nil {
			s.Assertions.ExactCounts = &ExactCountsAssert{Op: em.str("op")}
			em.done()
		}
		if rm := am.child("recovery"); rm != nil {
			r := &RecoveryAssert{Min: int(rm.int("min")), Max: -1, Deadline: rm.duration("deadline")}
			if rm.has("max") {
				r.Max = int(rm.int("max"))
			}
			rm.done()
			s.Assertions.Recovery = r
		}
		if lm := am.child("sink-latency"); lm != nil {
			s.Assertions.SinkLatency = &SinkLatencyAssert{
				Sink: lm.str("sink"),
				Max:  lm.duration("max"),
				P99:  lm.duration("p99"),
			}
			lm.done()
		}
		if mm := am.child("max-latency"); mm != nil {
			s.Assertions.MaxLatency = &MaxLatencyAssert{
				Sink:    mm.str("sink"),
				Ceiling: mm.duration("ceiling"),
			}
			mm.done()
		}
		if qm := am.child("queue-depth"); qm != nil {
			q := &QueueDepthAssert{Max: -1}
			if qm.has("max") {
				q.Max = qm.int("max")
			}
			qm.done()
			s.Assertions.QueueDepth = q
		}
		if km := am.child("spilled-keys"); km != nil {
			k := &SpilledKeysAssert{Min: km.int("min"), Max: -1}
			if km.has("max") {
				k.Max = km.int("max")
			}
			km.done()
			s.Assertions.SpilledKeys = k
		}
		for i, v := range am.list("counters") {
			cm := d.mapAt(v, fmt.Sprintf("assertions.counters[%d]", i))
			c := CounterAssert{Name: cm.str("name"), Min: cm.int("min"), Max: -1}
			if cm.has("max") {
				c.Max = cm.int("max")
			}
			cm.done()
			s.Assertions.Counters = append(s.Assertions.Counters, c)
		}
		if pm := am.child("parallelism"); pm != nil {
			s.Assertions.Parallelism = make(map[string]int)
			for k := range pm.raw {
				s.Assertions.Parallelism[k] = int(pm.int(k))
			}
		}
		s.Assertions.AllowErrors = am.boolean("allow-errors")
		am.done()
	}
	root.done()
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// Validate lint-checks a decoded scenario and returns every problem.
func Validate(s *Scenario) []error {
	var errs []error
	add := func(kind ErrorKind, path, format string, args ...any) {
		errs = append(errs, &SchemaError{Kind: kind, Path: path, Msg: fmt.Sprintf(format, args...)})
	}

	if s.Name == "" {
		add(ErrMissingField, "name", "every scenario needs a name")
	}
	if s.Duration <= 0 {
		add(ErrBadValue, "duration", "scenario duration must be positive, got %v", s.Duration)
	}
	if len(s.Substrates) == 0 {
		add(ErrMissingField, "substrates", "declare at least one of sim, live, dist")
	}
	declared := make(map[string]bool, len(s.Substrates))
	for i, sub := range s.Substrates {
		if !substrateNames[sub] {
			add(ErrBadValue, fmt.Sprintf("substrates[%d]", i), "unknown substrate %q (want sim, live or dist)", sub)
			continue
		}
		declared[sub] = true
	}

	ops := make(map[string]OpSpec, len(s.Ops))
	sinks := make(map[string]bool)
	sources := make(map[string]bool)
	if len(s.Ops) == 0 {
		add(ErrMissingField, "topology.ops", "every scenario needs a topology")
	}
	for i, op := range s.Ops {
		path := fmt.Sprintf("topology.ops[%d]", i)
		if op.ID == "" {
			add(ErrMissingField, path+".id", "operator needs an id")
		}
		if _, dup := ops[op.ID]; dup {
			add(ErrBadValue, path+".id", "duplicate operator id %q", op.ID)
		}
		ops[op.ID] = op
		switch op.Kind {
		case "source":
			sources[op.ID] = true
		case "sink":
			sinks[op.ID] = true
		default:
			if !HasFactory(op.Kind) {
				add(ErrUnknownFactory, path+".kind", "unknown factory %q (have: %s)", op.Kind, factoryNames())
			}
		}
	}
	for i, c := range s.Connections {
		for j, id := range c {
			if _, ok := ops[id]; !ok {
				add(ErrUnknownOp, fmt.Sprintf("topology.connections[%d][%d]", i, j), "undeclared operator %q", id)
			}
		}
	}

	if s.External {
		if s.Workload != nil {
			add(ErrBadValue, "workload", "external scenarios cannot inject a workload (sources are bound in the worker registry)")
		}
		if s.Assertions.ExactCounts != nil {
			add(ErrBadValue, "assertions.exact-counts", "external scenarios cannot read operator state for exact counts")
		}
		if declared["sim"] || declared["live"] {
			add(ErrSubstrateRestricted, "substrates", "external scenarios run on Distributed only")
		}
	} else if s.Workload == nil {
		add(ErrMissingField, "workload", "every non-external scenario needs a workload")
	}
	if w := s.Workload; w != nil {
		if w.Source == "" {
			add(ErrMissingField, "workload.source", "workload needs a source operator")
		} else if !sources[w.Source] {
			add(ErrUnknownOp, "workload.source", "%q is not a declared source", w.Source)
		}
		if w.Tuples <= 0 {
			add(ErrBadValue, "workload.tuples", "want a positive tuple count, got %d", w.Tuples)
		}
		if w.Keys <= 0 {
			add(ErrBadValue, "workload.keys", "want a positive key count, got %d", w.Keys)
		}
		if w.Skew < 0 {
			add(ErrBadValue, "workload.skew", "skew must be non-negative, got %v", w.Skew)
		}
		if w.SustainedOverload < 0 {
			add(ErrBadValue, "workload.sustained-overload", "want a non-negative re-injection count, got %d", w.SustainedOverload)
		}
	}
	if s.Options.QueueBound < 0 {
		add(ErrBadValue, "options.queue-bound", "want a positive tuple bound, got %d", s.Options.QueueBound)
	}
	if s.Options.MemoryLimitBytes < 0 {
		add(ErrBadValue, "options.memory-limit-bytes", "want a positive byte ceiling, got %d", s.Options.MemoryLimitBytes)
	}

	for i, ev := range s.Events {
		path := fmt.Sprintf("events[%d]", i)
		allowed, known := eventKinds[ev.Kind]
		if !known {
			add(ErrUnknownEventKind, path+".kind", "unknown event kind %q (have: %v)", ev.Kind, EventKinds())
			continue
		}
		if ev.At < 0 {
			add(ErrBadValue, path+".at", "event time must be non-negative, got %v", ev.At)
		}
		if s.Duration > 0 && ev.At > s.Duration {
			add(ErrEventAfterEnd, path+".at", "event at %v is scheduled after the scenario ends at %v", ev.At, s.Duration)
		}
		if allowed != nil {
			ok := make(map[string]bool, len(allowed))
			for _, a := range allowed {
				ok[a] = true
			}
			for _, sub := range s.Substrates {
				if substrateNames[sub] && !ok[sub] {
					add(ErrSubstrateRestricted, path+".kind", "%s cannot run on substrate %q (supported: %v)", ev.Kind, sub, allowed)
				}
			}
		}
		if !opFreeKinds[ev.Kind] {
			if ev.Op == "" {
				add(ErrMissingField, path+".op", "%s needs an op", ev.Kind)
			} else if _, ok := ops[ev.Op]; !ok {
				add(ErrUnknownOp, path+".op", "undeclared operator %q", ev.Op)
			}
		}
		switch ev.Kind {
		case "scale-out":
			if ev.Pi != 0 && ev.Pi < 2 {
				add(ErrBadValue, path+".pi", "scale-out needs pi >= 2, got %d", ev.Pi)
			}
		case "scale-in":
			if ev.Merge != 0 && ev.Merge < 2 {
				add(ErrBadValue, path+".merge", "scale-in merges at least 2 partitions, got %d", ev.Merge)
			}
		case "slow-link":
			if ev.Delay <= 0 {
				add(ErrBadValue, path+".delay", "slow-link needs a positive delay")
			}
		case "inject-burst":
			if ev.Tuples <= 0 {
				add(ErrBadValue, path+".tuples", "inject-burst needs a positive tuple count")
			}
			if s.External {
				add(ErrBadValue, path+".kind", "external scenarios cannot inject bursts")
			} else if s.Workload != nil && ev.Op != "" && ev.Op != s.Workload.Source {
				add(ErrBadValue, path+".op", "bursts enter through the workload source %q, got %q", s.Workload.Source, ev.Op)
			}
		}
	}

	// Coordinator kill/restart must pair up in time order: a restart
	// with no dead coordinator has nothing to recover, and a scenario
	// ending with the coordinator dead cannot settle or snapshot.
	var coordEvents []int
	for i, ev := range s.Events {
		if ev.Kind == "kill-coordinator" || ev.Kind == "restart-coordinator" {
			coordEvents = append(coordEvents, i)
		}
	}
	sort.SliceStable(coordEvents, func(a, b int) bool {
		return s.Events[coordEvents[a]].At < s.Events[coordEvents[b]].At
	})
	coordDead := false
	for _, i := range coordEvents {
		path := fmt.Sprintf("events[%d].kind", i)
		switch s.Events[i].Kind {
		case "kill-coordinator":
			if coordDead {
				add(ErrBadValue, path, "the coordinator is already dead (unmatched kill-coordinator earlier in the script)")
			}
			coordDead = true
		case "restart-coordinator":
			if !coordDead {
				add(ErrBadValue, path, "restart-coordinator needs a kill-coordinator earlier in the script")
			}
			coordDead = false
		}
	}
	if coordDead {
		add(ErrBadValue, "events", "the script ends with the coordinator dead: every kill-coordinator needs a later restart-coordinator")
	}

	if ec := s.Assertions.ExactCounts; ec != nil {
		if ec.Op == "" {
			add(ErrMissingField, "assertions.exact-counts.op", "exact-counts needs an op")
		} else if _, ok := ops[ec.Op]; !ok {
			add(ErrUnknownOp, "assertions.exact-counts.op", "undeclared operator %q", ec.Op)
		}
	}
	if sl := s.Assertions.SinkLatency; sl != nil {
		if sl.Sink == "" {
			add(ErrMissingField, "assertions.sink-latency.sink", "sink-latency needs a sink")
		} else if !sinks[sl.Sink] {
			add(ErrUndeclaredSink, "assertions.sink-latency.sink", "%q is not a declared sink", sl.Sink)
		}
	}
	if ml := s.Assertions.MaxLatency; ml != nil {
		if ml.Sink == "" {
			add(ErrMissingField, "assertions.max-latency.sink", "max-latency needs a sink")
		} else if !sinks[ml.Sink] {
			add(ErrUndeclaredSink, "assertions.max-latency.sink", "%q is not a declared sink", ml.Sink)
		}
		if ml.Ceiling <= 0 {
			add(ErrBadBound, "assertions.max-latency.ceiling", "the hard ceiling must be positive, got %v", ml.Ceiling)
		} else if sl := s.Assertions.SinkLatency; sl != nil && sl.Sink == ml.Sink {
			// Both blocks bound the same sink: the summary bounds cannot
			// sit above the per-record hard ceiling.
			if sl.Max > ml.Ceiling {
				add(ErrBadBound, "assertions.sink-latency.max", "max bound %v is looser than the %v hard ceiling on the same sink", sl.Max, ml.Ceiling)
			}
			if sl.P99 > ml.Ceiling {
				add(ErrBadBound, "assertions.sink-latency.p99", "p99 bound %v exceeds the %v hard ceiling on the same sink", sl.P99, ml.Ceiling)
			}
		}
	}
	if qd := s.Assertions.QueueDepth; qd != nil {
		if qd.Max < 0 {
			add(ErrMissingField, "assertions.queue-depth.max", "queue-depth needs a max bound")
		} else if qd.Max == 0 {
			add(ErrBadBound, "assertions.queue-depth.max", "the queue-depth bound must be positive, got %d", qd.Max)
		}
		if declared["sim"] {
			add(ErrSubstrateRestricted, "assertions.queue-depth", "queue-depth reads backpressure gauges the simulator does not model (declare live or dist only)")
		}
	}
	if sk := s.Assertions.SpilledKeys; sk != nil {
		if sk.Min < 0 {
			add(ErrBadBound, "assertions.spilled-keys.min", "want a non-negative minimum, got %d", sk.Min)
		}
		if sk.Max >= 0 && sk.Max < sk.Min {
			add(ErrBadBound, "assertions.spilled-keys.max", "max %d contradicts min %d", sk.Max, sk.Min)
		}
		if sk.Min > 0 && s.Options.MemoryLimitBytes <= 0 {
			add(ErrBadValue, "assertions.spilled-keys.min", "nothing spills without options.memory-limit-bytes: a positive minimum cannot hold")
		}
		if declared["sim"] {
			add(ErrSubstrateRestricted, "assertions.spilled-keys", "spilled-keys reads spill counters the simulator does not model (declare live or dist only)")
		}
	}
	for i, c := range s.Assertions.Counters {
		if !counterNames[c.Name] {
			names := make([]string, 0, len(counterNames))
			for n := range counterNames {
				names = append(names, n)
			}
			sort.Strings(names)
			add(ErrBadValue, fmt.Sprintf("assertions.counters[%d].name", i), "unknown counter %q (have: %v)", c.Name, names)
		}
	}
	for op := range s.Assertions.Parallelism {
		if _, ok := ops[op]; !ok {
			add(ErrUnknownOp, "assertions.parallelism."+op, "undeclared operator %q", op)
		}
	}
	return errs
}

// --- decoding helpers -------------------------------------------------

// decoder accumulates the first decode error; helpers become no-ops
// after a failure so call sites stay linear.
type decoder struct{ err error }

func (d *decoder) fail(path, format string, args ...any) {
	if d.err == nil {
		d.err = &SchemaError{Kind: ErrBadValue, Path: path, Msg: fmt.Sprintf(format, args...)}
	}
}

func (d *decoder) failKind(kind ErrorKind, path, format string, args ...any) {
	if d.err == nil {
		d.err = &SchemaError{Kind: kind, Path: path, Msg: fmt.Sprintf(format, args...)}
	}
}

// objMap wraps one mapping and tracks which keys were consumed, so
// done() can flag unknown fields.
type objMap struct {
	d    *decoder
	path string
	raw  map[string]any
	used map[string]bool
}

func (d *decoder) mapAt(v any, path string) *objMap {
	m, ok := v.(map[string]any)
	if !ok {
		d.fail(path, "want a mapping, got %T", v)
		m = map[string]any{}
	}
	return &objMap{d: d, path: path, raw: m, used: make(map[string]bool)}
}

func (m *objMap) key(k string) string {
	if m.path == "" {
		return k
	}
	return m.path + "." + k
}

func (m *objMap) has(k string) bool { _, ok := m.raw[k]; return ok }

func (m *objMap) take(k string) (any, bool) {
	v, ok := m.raw[k]
	m.used[k] = true
	return v, ok
}

// done flags any key the schema did not consume.
func (m *objMap) done() {
	for k := range m.raw {
		if !m.used[k] {
			m.d.failKind(ErrUnknownField, m.key(k), "unknown field")
		}
	}
}

func (m *objMap) str(k string) string {
	v, ok := m.take(k)
	if !ok || v == nil {
		return ""
	}
	s, ok := v.(string)
	if !ok {
		m.d.fail(m.key(k), "want a string, got %v (%T)", v, v)
		return ""
	}
	return s
}

func (m *objMap) int(k string) int64 {
	v, ok := m.take(k)
	if !ok || v == nil {
		return 0
	}
	n, ok := v.(int64)
	if !ok {
		m.d.fail(m.key(k), "want an integer, got %v (%T)", v, v)
		return 0
	}
	return n
}

func (m *objMap) float(k string) float64 {
	v, ok := m.take(k)
	if !ok || v == nil {
		return 0
	}
	switch n := v.(type) {
	case float64:
		return n
	case int64:
		return float64(n)
	}
	m.d.fail(m.key(k), "want a number, got %v (%T)", v, v)
	return 0
}

func (m *objMap) boolean(k string) bool {
	v, ok := m.take(k)
	if !ok || v == nil {
		return false
	}
	b, ok := v.(bool)
	if !ok {
		m.d.fail(m.key(k), "want true or false, got %v (%T)", v, v)
		return false
	}
	return b
}

func (m *objMap) duration(k string) time.Duration {
	v, ok := m.take(k)
	if !ok || v == nil {
		return 0
	}
	s, ok := v.(string)
	if !ok {
		m.d.fail(m.key(k), "want a duration such as \"500ms\", got %v (%T)", v, v)
		return 0
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		m.d.fail(m.key(k), "bad duration %q: %v", s, err)
		return 0
	}
	return d
}

func (m *objMap) list(k string) []any {
	v, ok := m.take(k)
	if !ok || v == nil {
		return nil
	}
	l, ok := v.([]any)
	if !ok {
		m.d.fail(m.key(k), "want a list, got %v (%T)", v, v)
		return nil
	}
	return l
}

func (m *objMap) child(k string) *objMap {
	v, ok := m.take(k)
	if !ok || v == nil {
		return nil
	}
	return m.d.mapAt(v, m.key(k))
}

func (d *decoder) scalarStr(v any, path string) string {
	s, ok := v.(string)
	if !ok {
		d.fail(path, "want a string, got %v (%T)", v, v)
		return ""
	}
	return s
}
