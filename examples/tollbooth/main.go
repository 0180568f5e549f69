// Tollbooth: a Linear-Road-style road tolling query with a CUSTOM
// stateful operator, running on the simulated cloud with the paper's
// bottleneck-driven scaling policy and a failure injection. This is the
// template for bringing your own operator: declare managed state cells
// (seep.NewValueState / seep.NewMapState) against a seep.StateStore and
// the system handles locking, serialisation, checkpointing (full and
// incremental), backup, partitioning, scale out and recovery.
//
//	go run ./examples/tollbooth
package main

import (
	"fmt"
	"log"
	"time"

	"seep"
)

// carEvent is a vehicle passing a toll segment.
type carEvent struct {
	Segment int
	Speed   float64
}

// segTotals is the per-segment state fragment. Exported fields so the
// default gob codec can serialise it.
type segTotals struct {
	Cars  int64
	Tolls float64
}

// segmentToller is a user-written stateful operator on the managed
// keyed-state API: per road segment it tracks cars seen and collected
// tolls (congestion-priced). No mutex, no codec, no snapshot code — the
// store owns all of it.
type segmentToller struct {
	store  *seep.StateStore
	totals *seep.ValueState[segTotals]
}

func newSegmentToller() *segmentToller {
	st := seep.NewStateStore()
	return &segmentToller{
		store:  st,
		totals: seep.NewValueState[segTotals](st, "totals", nil), // nil codec = gob
	}
}

// State implements seep.Managed: the system checkpoints, partitions and
// restores everything registered against the store.
func (s *segmentToller) State() *seep.StateStore { return s.store }

// OnTuple implements seep.Operator.
func (s *segmentToller) OnTuple(_ seep.Context, t seep.Tuple, emit seep.Emitter) {
	ev, ok := t.Payload.(carEvent)
	if !ok {
		return
	}
	toll := 0.0
	if ev.Speed < 40 { // congestion pricing
		toll = 2 * (40 - ev.Speed) / 40
	}
	st := s.totals.Update(t.Key, func(cur segTotals) segTotals {
		cur.Cars++
		cur.Tolls += toll
		return cur
	})
	emit(t.Key, fmt.Sprintf("seg %d: car #%d tolled %.2f", ev.Segment, st.Cars, toll))
}

func (s *segmentToller) sums() (cars int64, tolls float64) {
	s.totals.ForEach(func(_ seep.Key, st segTotals) {
		cars += st.Cars
		tolls += st.Tolls
	})
	return cars, tolls
}

func main() {
	topo, err := seep.NewTopology().
		Source("road").
		Stateful("toller", func() seep.Operator { return newSegmentToller() }, seep.Cost(0.0006)).
		Sink("sink").
		Build()
	if err != nil {
		log.Fatal(err)
	}

	// Simulated cloud: R+SM fault tolerance, 5 s checkpoints — only one
	// in ten a full snapshot, the rest incremental deltas of the dirtied
	// segments — a small pre-allocated VM pool, and the paper's scaling
	// policy.
	job, err := seep.Simulated(
		seep.WithSeed(7),
		seep.WithFTMode(seep.FTRSM),
		seep.WithCheckpointInterval(5*time.Second),
		seep.WithIncrementalCheckpoints(),
		seep.WithVMPool(seep.PoolConfig{Size: 3}),
		seep.WithPolicy(seep.DefaultPolicy()),
	).Deploy(topo)
	if err != nil {
		log.Fatal(err)
	}

	// 2000 cars/s against a toller that handles ~1650/s: a bottleneck
	// the policy must resolve by splitting the operator. Traffic is
	// skewed — most cars on 50 busy segments, a long rural tail touched
	// rarely — so between full checkpoints the incremental deltas cover
	// only the dirtied slice of the state.
	if err := job.AddSource("road", seep.ConstantRate(2000),
		func(i uint64) (seep.Key, any) {
			seg := int(i % 50) // busy highways
			if i%97 == 0 {
				seg = 50 + int((i/97)%5000) // rural tail
			}
			ev := carEvent{Segment: seg, Speed: 25 + float64(i%50)}
			return seep.KeyOfString(fmt.Sprintf("segment-%04d", seg)), ev
		}); err != nil {
		log.Fatal(err)
	}
	job.Start()
	defer job.Stop()

	// Run 60 virtual seconds (the policy splits the bottleneck), then
	// kill one toller partition: recovery is just scale out with π=1.
	job.Run(60 * time.Second)
	victims := job.Instances("toller")
	if len(victims) == 0 {
		log.Fatal("no live toller to fail")
	}
	if err := job.Fail(victims[0]); err != nil {
		log.Printf("fail: %v", err)
	} else {
		fmt.Printf("t=60s: killed %v\n", victims[0])
	}
	job.Run(60 * time.Second)

	m := job.MetricsSnapshot()
	fmt.Printf("after %d virtual seconds:\n", m.ElapsedMillis/1000)
	fmt.Printf("  toller partitions: %d\n", m.Parallelism["toller"])
	for _, r := range m.Recoveries {
		kind := "scale-out"
		if r.Failure {
			kind = "recovery"
		}
		fmt.Printf("  %-9s t=%5.1fs %v -> pi=%d (%.1f s, %d tuples replayed)\n",
			kind, float64(r.StartedAt)/1000, r.Victim, r.Pi, float64(r.Duration())/1000, r.ReplayedTuples)
	}
	fmt.Printf("  checkpoints: %d full (%d B), %d incremental (%d B)\n",
		m.Checkpoints.Fulls, m.Checkpoints.FullBytes, m.Checkpoints.Deltas, m.Checkpoints.DeltaBytes)
	var cars int64
	var tolls float64
	for _, inst := range job.Instances("toller") {
		op, ok := job.OperatorOf(inst).(*segmentToller)
		if !ok {
			continue
		}
		cr, tl := op.sums()
		cars += cr
		tolls += tl
	}
	fmt.Printf("  cars tolled: %d, revenue: %.2f\n", cars, tolls)
	fmt.Printf("  latency: %s\n", m.Latency)
}
