package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"seep"
)

// counter is the bench's stateful operator: one managed int64 per key,
// incremented per tuple, and the input payload sent on unchanged. The
// library's KeyedSum emits KeyedSumResult, which has no wire codec and
// would take the gob fallback on every tuple of a distributed run.
type counter struct {
	store *seep.StateStore
	n     *seep.ValueState[int64]
}

func newCounter() seep.Operator {
	s := seep.NewStateStore()
	return &counter{store: s, n: seep.NewValueState[int64](s, "n", seep.Int64Codec{})}
}

func inc(v int64) int64 { return v + 1 }

func (c *counter) OnTuple(_ seep.Context, t seep.Tuple, emit seep.Emitter) {
	c.n.Update(t.Key, inc)
	emit(t.Key, t.Payload)
}

func (c *counter) State() *seep.StateStore { return c.store }

func topology() (*seep.Topology, error) {
	return seep.NewTopology().
		Source("src").
		Stateless("map", func() seep.Operator { return seep.Passthrough() }).
		Stateful("cnt", newCounter).
		Sink("sink").
		Build()
}

// runtimeFor builds the substrate a workload names. dir is where a
// durable control plane may keep its journal.
func runtimeFor(s *spec, dir string) seep.Runtime {
	opts := []seep.Option{
		seep.WithBatching(256, 2*time.Millisecond),
		seep.WithCheckpointInterval(s.checkpoint),
	}
	if !s.dist {
		return seep.Live(opts...)
	}
	opts = append(opts, seep.WithWorkers(s.workers), seep.WithDetectDelay(s.detect))
	if s.transitions {
		opts = append(opts, seep.WithControlPlaneDir(dir))
	}
	return seep.Distributed(opts...)
}

// latencyLimit is the bound a tuple's sink latency must meet.
const latencyLimit = 10 * time.Millisecond

// sink is the bench's side of Job.OnSink. In counting mode (set-up and
// closed-loop rounds) it only counts arrivals and wakes the waiter at
// the target; in open mode it also times every tuple from its due time,
// which the payload carries as nanoseconds since the open loop began.
type sink struct {
	arrived atomic.Int64  // all arrivals since deploy
	target  atomic.Int64  // arrival count the waiter sleeps for
	reached chan struct{} // one token when arrived first reaches target
	open    atomic.Bool

	mu       sync.Mutex // guards the fields below (sink goroutine vs reader)
	start    time.Time  // open-loop origin
	wins     []window   // per second of due time
	episodes []episode  // cut at the due times of the transitions
}

// episode is the stretch of an open loop that begins with a transition:
// the longest any tuple due in it waited is the outage the sink saw.
type episode struct {
	from    int64 // first due time, ns since start
	arrived int64 // tuples due in it that reached the sink
	maxLat  int64
}

// outage is how long the sink saw the stream interrupted: the longest
// wait of a tuple due in the episode, which ends at due time to. When a
// tuple due in it never arrived the interruption did not end: it lasted
// until the loop's deadline at least.
func (e *episode) outage(to int64, tick time.Duration, perTick, deadline int64) int64 {
	t := int64(tick)
	ticks := (to+t-1)/t - (e.from+t-1)/t // schedule steps due in [from, to)
	if e.arrived < ticks*perTick {
		return deadline - e.from
	}
	return e.maxLat
}

// window collects the tuples that were due within one second of the
// open loop.
type window struct {
	lat  hist
	late int64 // arrivals over the limit
}

// windowWidth is the length of due time one window covers.
const windowWidth = time.Second

func newSink() *sink { return &sink{reached: make(chan struct{}, 1)} }

func (s *sink) onTuple(t seep.Tuple) {
	if s.open.Load() {
		if due, ok := t.Payload.(int64); ok && due >= 0 {
			s.mu.Lock()
			now := int64(time.Since(s.start))
			lat := now - due
			w := &s.wins[len(s.wins)-1] // tuples due past the end share the last window
			if i := int(due / int64(windowWidth)); i < len(s.wins)-1 {
				w = &s.wins[i]
			}
			w.lat.add(lat)
			if lat > int64(latencyLimit) {
				w.late++
			}
			for i := len(s.episodes) - 1; i >= 0; i-- {
				if e := &s.episodes[i]; due >= e.from {
					e.arrived++
					if lat > e.maxLat {
						e.maxLat = lat
					}
					break
				}
			}
			s.mu.Unlock()
		}
	}
	if s.arrived.Add(1) == s.target.Load() {
		select {
		case s.reached <- struct{}{}:
		default:
		}
	}
}

// await blocks until the sink has seen total arrivals or the deadline
// passes, and reports whether it saw them.
func (s *sink) await(total int64, deadline time.Time) bool {
	select { // drop a token left by an earlier target
	case <-s.reached:
	default:
	}
	s.target.Store(total)
	if s.arrived.Load() >= total {
		return true
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	for {
		select {
		case <-s.reached:
			if s.arrived.Load() >= total {
				return true
			}
		case <-t.C:
			return s.arrived.Load() >= total
		}
	}
}

// beginOpen switches the sink to timing mode for an open loop of the
// given length; episodes begin at the given due times.
func (s *sink) beginOpen(start time.Time, span time.Duration, episodeStarts ...time.Duration) {
	s.mu.Lock()
	s.start = start
	s.wins = make([]window, int((span+windowWidth-1)/windowWidth))
	s.episodes = nil
	for _, from := range episodeStarts {
		s.episodes = append(s.episodes, episode{from: int64(from)})
	}
	s.mu.Unlock()
	s.open.Store(true)
}

// deployed is one running job with the bench's sink attached.
type deployed struct {
	job     seep.Job
	sink    *sink
	started time.Time // when Job.Start was called; recovery records count from here
	sent    int64     // tuples injected since deploy
}

// deploy brings a job up and fills its state: one tuple per key of the
// workload's key set (or the warm-up count, if larger), all delivered
// before it returns. The returned duration is the Deploy call alone.
func deploy(s *spec, seed int64, dir string, tr *tracer) (*deployed, time.Duration, error) {
	topo, err := topology()
	if err != nil {
		return nil, 0, err
	}
	sp := tr.begin("bench.deploy", 0)
	t0 := time.Now()
	job, err := runtimeFor(s, dir).Deploy(topo)
	deployTook := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("deploy %s: %w", s.name, err)
	}
	d := &deployed{job: job, sink: newSink()}
	job.OnSink(d.sink.onTuple)
	d.started = time.Now()
	job.Start()

	sp = tr.begin("bench.preload", 0)
	defer tr.end(sp)
	n := s.preload()
	keys := newKeygen(seed, s.keys)
	payload := any(int64(-1))
	if err := job.InjectBatch("src", n, func(uint64) (seep.Key, any) { return keys.next(), payload }); err != nil {
		job.Stop()
		return nil, 0, fmt.Errorf("preload %s: %w", s.name, err)
	}
	d.sent = int64(n)
	if !d.sink.await(d.sent, time.Now().Add(30*time.Second)) {
		job.Stop()
		return nil, 0, fmt.Errorf("preload %s: %d of %d tuples reached the sink in 30 s", s.name, d.sink.arrived.Load(), n)
	}
	return d, deployTook, nil
}

// counts reads cnt's managed state through the public Job API, summed
// over its live instances.
func (d *deployed) counts() (map[seep.Key]int64, error) {
	got := map[seep.Key]int64{}
	insts := d.job.Instances("cnt")
	if len(insts) == 0 {
		return nil, fmt.Errorf("no live instance of cnt")
	}
	for _, inst := range insts {
		c, ok := d.job.OperatorOf(inst).(*counter)
		if !ok {
			return nil, fmt.Errorf("%s hosts no counter operator", inst)
		}
		c.n.ForEach(func(k seep.Key, v int64) { got[k] += v })
	}
	return got, nil
}
