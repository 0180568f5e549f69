package lrb

import (
	"testing"

	"seep/internal/operator"
	"seep/internal/state"
	"seep/internal/stream"
)

type sink struct {
	keys     []stream.Key
	payloads []any
}

func (s *sink) emit(k stream.Key, p any) {
	s.keys = append(s.keys, k)
	s.payloads = append(s.payloads, p)
}

// roundTrip checkpoints one operator's managed state and restores it
// into a fresh instance's store, as a recovery does.
func roundTrip(t *testing.T, from, to *state.Store) {
	t.Helper()
	kv, err := from.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := to.Restore(kv); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := NewGenerator(3, 42), NewGenerator(3, 42)
	for i := 0; i < 1000; i++ {
		ka, ra := a.Next()
		kb, rb := b.Next()
		if ka != kb || ra != rb {
			t.Fatalf("divergence at %d", i)
		}
	}
}

func TestGeneratorShape(t *testing.T) {
	g := NewGenerator(2, 7)
	pos, bal, stopped := 0, 0, 0
	for i := 0; i < 20000; i++ {
		_, r := g.Next()
		switch r.Type {
		case TypePosition:
			pos++
			if r.Speed == 0 {
				stopped++
			}
			if r.XWay < 0 || r.XWay >= 2 || r.Seg < 0 || r.Seg >= 100 {
				t.Fatalf("out-of-range report %+v", r)
			}
		case TypeBalance:
			bal++
		default:
			t.Fatalf("unknown type %d", r.Type)
		}
	}
	if bal == 0 || bal > pos/20 {
		t.Errorf("balance queries = %d of %d", bal, pos)
	}
	if stopped == 0 {
		t.Error("no stopped vehicles generated")
	}
}

func TestRateProfile(t *testing.T) {
	r := RateProfile(350, 2_000_000)
	start := r(0)
	end := r(2_000_000)
	if start < 4000 || start > 15_000 {
		t.Errorf("start rate = %v, want ≈ 12 k", start)
	}
	if end < 550_000 || end > 620_000 {
		t.Errorf("end rate = %v, want ≈ 595 k", end)
	}
	if r(-5) != start || r(3_000_000) != end {
		t.Error("profile should clamp outside [0, duration]")
	}
	if r(1_000_000) <= start || r(1_000_000) >= end {
		t.Error("profile not monotone")
	}
}

func TestForwarderRouting(t *testing.T) {
	f := Forwarder()
	var s sink
	pos := Report{Type: TypePosition, VID: 1, XWay: 2, Dir: 1, Seg: 33, Speed: 50}
	bal := Report{Type: TypeBalance, VID: 1, QID: 9}
	f.OnTuple(operator.Context{}, stream.Tuple{Payload: pos}, s.emit)
	f.OnTuple(operator.Context{}, stream.Tuple{Payload: bal}, s.emit)
	if len(s.payloads) != 2 {
		t.Fatalf("forwarded %d", len(s.payloads))
	}
	if s.keys[0] != SegmentKey(2, 1, 33) {
		t.Error("position report not keyed by segment")
	}
	if s.keys[1] != VehicleKey(1) {
		t.Error("balance query not keyed by vehicle")
	}
}

func TestTollCalculatorTollsCongestion(t *testing.T) {
	tc := NewTollCalculator()
	var s sink
	// Fast traffic: no toll.
	for i := 0; i < 20; i++ {
		r := Report{Type: TypePosition, VID: int32(i), XWay: 0, Seg: 5, Speed: 60}
		tc.OnTuple(operator.Context{}, stream.Tuple{Key: SegmentKey(0, 0, 5), Payload: r}, s.emit)
	}
	last := s.payloads[len(s.payloads)-1].(TollNotification)
	if last.Toll != 0 {
		t.Errorf("fast segment tolled: %+v", last)
	}
	// Congested traffic: tolls appear.
	for i := 0; i < 50; i++ {
		r := Report{Type: TypePosition, VID: int32(i), XWay: 0, Seg: 6, Speed: 10}
		tc.OnTuple(operator.Context{}, stream.Tuple{Key: SegmentKey(0, 0, 6), Payload: r}, s.emit)
	}
	last = s.payloads[len(s.payloads)-1].(TollNotification)
	if last.Toll <= 0 {
		t.Errorf("congested segment not tolled: %+v", last)
	}
	if tc.Segments() != 2 {
		t.Errorf("Segments = %d", tc.Segments())
	}
	if tc.CarsTotal() != 70 {
		t.Errorf("CarsTotal = %d", tc.CarsTotal())
	}
}

func TestTollCalculatorAccident(t *testing.T) {
	tc := NewTollCalculator()
	var s sink
	k := SegmentKey(0, 0, 9)
	for i := 0; i < 5; i++ {
		r := Report{Type: TypePosition, VID: 7, XWay: 0, Seg: 9, Speed: 0}
		tc.OnTuple(operator.Context{}, stream.Tuple{Key: k, Payload: r}, s.emit)
	}
	last := s.payloads[len(s.payloads)-1].(TollNotification)
	if !last.Accident {
		t.Errorf("accident not detected: %+v", last)
	}
	if last.Toll != 0 {
		t.Error("accident segment should not toll")
	}
	// Traffic resumes: accident clears after enough moving reports.
	for i := 0; i < 10; i++ {
		r := Report{Type: TypePosition, VID: 8, XWay: 0, Seg: 9, Speed: 50}
		tc.OnTuple(operator.Context{}, stream.Tuple{Key: k, Payload: r}, s.emit)
	}
	last = s.payloads[len(s.payloads)-1].(TollNotification)
	if last.Accident {
		t.Error("accident did not clear")
	}
}

func TestTollCalculatorBalancePassthrough(t *testing.T) {
	tc := NewTollCalculator()
	var s sink
	r := Report{Type: TypeBalance, VID: 5, QID: 1}
	tc.OnTuple(operator.Context{}, stream.Tuple{Key: VehicleKey(5), Payload: r}, s.emit)
	if len(s.payloads) != 1 {
		t.Fatal("balance query dropped")
	}
	if s.keys[0] != VehicleKey(5) {
		t.Error("balance query re-keyed incorrectly")
	}
}

func TestTollCalculatorSnapshotRestore(t *testing.T) {
	tc := NewTollCalculator()
	var s sink
	for i := 0; i < 100; i++ {
		r := Report{Type: TypePosition, VID: int32(i), XWay: 1, Seg: int32(i % 7), Speed: 20}
		tc.OnTuple(operator.Context{}, stream.Tuple{Key: SegmentKey(1, 0, r.Seg), Payload: r}, s.emit)
	}
	tc2 := NewTollCalculator()
	roundTrip(t, tc.State(), tc2.State())
	if tc2.Segments() != tc.Segments() || tc2.CarsTotal() != tc.CarsTotal() {
		t.Errorf("restore lost state: %d/%d segments, %d/%d cars",
			tc2.Segments(), tc.Segments(), tc2.CarsTotal(), tc.CarsTotal())
	}
}

func TestTollAssessmentAccumulatesAndAnswers(t *testing.T) {
	ta := NewTollAssessment()
	var s sink
	k := VehicleKey(42)
	ta.OnTuple(operator.Context{}, stream.Tuple{Key: k, Payload: TollNotification{VID: 42, Toll: 10}}, s.emit)
	ta.OnTuple(operator.Context{}, stream.Tuple{Key: k, Payload: TollNotification{VID: 42, Toll: 5}}, s.emit)
	if got := ta.Balance(42); got != 15 {
		t.Errorf("Balance = %d", got)
	}
	// Notifications pass through.
	if len(s.payloads) != 2 {
		t.Errorf("passed through %d notifications", len(s.payloads))
	}
	ta.OnTuple(operator.Context{}, stream.Tuple{Key: k, Payload: Report{Type: TypeBalance, VID: 42, QID: 3}}, s.emit)
	resp, ok := s.payloads[2].(BalanceResponse)
	if !ok || resp.Balance != 15 || resp.QID != 3 {
		t.Errorf("response = %+v", s.payloads[2])
	}
	if ta.Vehicles() != 1 {
		t.Errorf("Vehicles = %d", ta.Vehicles())
	}
	if ids := SortedVIDs(ta); len(ids) != 1 || ids[0] != 42 {
		t.Errorf("SortedVIDs = %v", ids)
	}
}

func TestTollAssessmentSnapshotRestore(t *testing.T) {
	ta := NewTollAssessment()
	var s sink
	for vid := int32(0); vid < 50; vid++ {
		ta.OnTuple(operator.Context{}, stream.Tuple{Key: VehicleKey(vid), Payload: TollNotification{VID: vid, Toll: vid}}, s.emit)
	}
	ta2 := NewTollAssessment()
	roundTrip(t, ta.State(), ta2.State())
	for vid := int32(0); vid < 50; vid++ {
		if ta2.Balance(vid) != int64(vid) {
			t.Fatalf("Balance(%d) = %d after restore", vid, ta2.Balance(vid))
		}
	}
}

func TestCollectorAndBalanceAccount(t *testing.T) {
	col := TollCollector()
	var s sink
	col.OnTuple(operator.Context{}, stream.Tuple{Key: 1, Payload: TollNotification{VID: 1, Toll: 2}}, s.emit)
	col.OnTuple(operator.Context{}, stream.Tuple{Key: 1, Payload: BalanceResponse{VID: 1}}, s.emit)
	if len(s.payloads) != 1 {
		t.Errorf("collector passed %d, want only the notification", len(s.payloads))
	}

	ba := NewBalanceAccount()
	s = sink{}
	ba.OnTuple(operator.Context{}, stream.Tuple{Key: VehicleKey(1), Payload: BalanceResponse{VID: 1, Balance: 7}}, s.emit)
	ba.OnTuple(operator.Context{}, stream.Tuple{Key: VehicleKey(1), Payload: TollNotification{VID: 1}}, s.emit)
	if len(s.payloads) != 1 {
		t.Errorf("balance account passed %d, want only the response", len(s.payloads))
	}
	if ba.Answered() != 1 {
		t.Errorf("Answered = %d", ba.Answered())
	}
	ba2 := NewBalanceAccount()
	roundTrip(t, ba.State(), ba2.State())
	if ba2.Answered() != 1 {
		t.Error("balance account restore lost state")
	}
}

func TestQueryValidates(t *testing.T) {
	q := query(t)
	if err := q.Validate(); err != nil {
		t.Fatalf("LRB query invalid: %v", err)
	}
	f := Factories()
	for _, id := range q.Ops() {
		spec := q.Op(id)
		if spec.Role == "source" || spec.Role == "sink" {
			continue
		}
		if f[id] == nil {
			t.Errorf("no factory for %s", id)
		}
	}
}

func TestFlowOpsWellFormed(t *testing.T) {
	ops, edges := FlowOps()
	ids := make(map[string]bool)
	for _, o := range ops {
		ids[string(o.ID)] = true
	}
	for _, e := range edges {
		if !ids[string(e.From)] || !ids[string(e.To)] {
			t.Errorf("edge %v references unknown operator", e)
		}
	}
	// The toll calculator must be the most expensive operator (it is
	// the paper's main bottleneck and is partitioned the most).
	var tollCost, maxOther float64
	for _, o := range ops {
		if o.ID == "tollcalc" {
			tollCost = o.CostPerTuple
		} else if o.CostPerTuple > maxOther {
			maxOther = o.CostPerTuple
		}
	}
	if tollCost <= maxOther {
		t.Errorf("tollcalc cost %v should dominate others (max %v)", tollCost, maxOther)
	}
}
