package lrb

import (
	"slices"

	"seep/internal/operator"
	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

// Output payloads flowing between LRB operators.

// TollNotification is emitted by the toll calculator for each position
// report entering a tolled segment: the vehicle is told the segment toll
// (LRB requires delivery within 5 s).
type TollNotification struct {
	VID  int32
	XWay int32
	Seg  int32
	Toll int32
	// Accident is set when the segment has an active accident (toll 0).
	Accident bool
}

// BalanceResponse answers a balance query with the vehicle's accumulated
// tolls.
type BalanceResponse struct {
	VID     int32
	QID     int32
	Balance int64
}

// Forwarder routes input tuples by type (§6.1): position reports are
// re-keyed by segment for the toll calculator; balance queries are
// re-keyed by vehicle for the toll assessment operator. It is the
// stateless fan-out stage that the paper's scale-out partitions second
// after the toll calculator.
func Forwarder() operator.Operator {
	return operator.Func(func(_ operator.Context, t stream.Tuple, emit operator.Emitter) {
		r, ok := t.Payload.(Report)
		if !ok {
			return
		}
		switch r.Type {
		case TypePosition:
			emit(SegmentKey(r.XWay, r.Dir, r.Seg), r)
		case TypeBalance:
			emit(VehicleKey(r.VID), r)
		}
	})
}

// segStats is the per-segment processing state of the toll calculator.
type segStats struct {
	xway, dir, seg int32
	// ewmaSpeed is the exponentially weighted average speed.
	ewmaSpeed float64
	// cars counts position reports in the current statistics window.
	cars int64
	// stoppedReports counts consecutive stopped-vehicle reports; ≥
	// accidentThreshold flags an accident.
	stoppedReports int32
	accident       bool
}

// TollCalculator is the stateful heart of the LRB query ("the main
// computational bottleneck", §6.1): it maintains per-segment traffic
// statistics keyed by SegmentKey in a managed cell, detects accidents
// from stopped-vehicle reports, and emits toll notifications. Balance
// queries pass through unchanged (they are keyed for the downstream
// assessment operator).
type TollCalculator struct {
	// AccidentThreshold is how many stopped reports flag an accident
	// (4 in the benchmark; lower in small tests).
	AccidentThreshold int32

	store *state.Store
	stats *state.Value[segStats]
}

// segStatsCodec is the compact fixed-layout cell codec of segStats.
var segStatsCodec = state.CodecFunc[segStats]{
	Enc: func(s segStats) ([]byte, error) {
		e := stream.NewEncoder(40)
		e.Int32(s.xway)
		e.Int32(s.dir)
		e.Int32(s.seg)
		e.Float64(s.ewmaSpeed)
		e.Int64(s.cars)
		e.Int32(s.stoppedReports)
		e.Bool(s.accident)
		return e.Bytes(), nil
	},
	Dec: func(b []byte) (segStats, error) {
		d := stream.NewDecoder(b)
		s := segStats{
			xway:           d.Int32(),
			dir:            d.Int32(),
			seg:            d.Int32(),
			ewmaSpeed:      d.Float64(),
			cars:           d.Int64(),
			stoppedReports: d.Int32(),
			accident:       d.Bool(),
		}
		return s, d.Err()
	},
}

// NewTollCalculator returns a toll calculator with benchmark defaults.
func NewTollCalculator() *TollCalculator {
	st := state.NewStore()
	return &TollCalculator{AccidentThreshold: 4, store: st, stats: state.NewValue(st, "segments", segStatsCodec)}
}

// State implements operator.Managed.
func (tc *TollCalculator) State() *state.Store { return tc.store }

// OnTuple implements operator.Operator.
func (tc *TollCalculator) OnTuple(_ operator.Context, t stream.Tuple, emit operator.Emitter) {
	r, ok := t.Payload.(Report)
	if !ok {
		return
	}
	if r.Type == TypeBalance {
		// Pass through to the assessment stage, keyed by vehicle.
		emit(VehicleKey(r.VID), r)
		return
	}
	s := tc.stats.Update(t.Key, func(s segStats) segStats {
		if s.cars == 0 {
			s = segStats{xway: r.XWay, dir: r.Dir, seg: r.Seg, ewmaSpeed: float64(r.Speed)}
		}
		s.cars++
		const alpha = 0.1
		s.ewmaSpeed = (1-alpha)*s.ewmaSpeed + alpha*float64(r.Speed)
		if r.Speed == 0 {
			s.stoppedReports++
			if s.stoppedReports >= tc.AccidentThreshold {
				s.accident = true
			}
		} else if s.stoppedReports > 0 {
			s.stoppedReports--
			if s.stoppedReports == 0 {
				s.accident = false
			}
		}
		return s
	})
	emit(VehicleKey(r.VID), TollNotification{
		VID: r.VID, XWay: r.XWay, Seg: r.Seg, Toll: tollFor(s), Accident: s.accident,
	})
}

// tollFor computes the LRB toll formula: tolls rise with congestion
// (slow average speed), and accidents suspend tolling.
func tollFor(s segStats) int32 {
	if s.accident || s.ewmaSpeed >= 40 {
		return 0
	}
	base := 2 * (40 - s.ewmaSpeed)
	if base < 0 {
		base = 0
	}
	return int32(base)
}

// Segments returns the number of tracked segments (for tests).
func (tc *TollCalculator) Segments() int { return tc.stats.Len() }

// CarsTotal returns the total position reports reflected in state.
func (tc *TollCalculator) CarsTotal() int64 {
	var n int64
	tc.stats.ForEach(func(_ stream.Key, s segStats) { n += s.cars })
	return n
}

// TollAssessment is the stateful per-vehicle accounting operator: it
// accumulates assessed tolls per vehicle (keyed by VehicleKey) in a
// managed cell and answers balance queries. Toll notifications pass
// through to the collector.
type TollAssessment struct {
	store    *state.Store
	balances *state.Value[vehicleAccount]
}

type vehicleAccount struct {
	vid     int32
	balance int64
}

// vehicleAccountCodec is the 12-byte cell codec of vehicleAccount.
var vehicleAccountCodec = state.CodecFunc[vehicleAccount]{
	Enc: func(a vehicleAccount) ([]byte, error) {
		e := stream.NewEncoder(12)
		e.Int32(a.vid)
		e.Int64(a.balance)
		return e.Bytes(), nil
	},
	Dec: func(b []byte) (vehicleAccount, error) {
		d := stream.NewDecoder(b)
		a := vehicleAccount{vid: d.Int32(), balance: d.Int64()}
		return a, d.Err()
	},
}

// NewTollAssessment returns an empty assessment operator.
func NewTollAssessment() *TollAssessment {
	st := state.NewStore()
	return &TollAssessment{store: st, balances: state.NewValue(st, "accounts", vehicleAccountCodec)}
}

// State implements operator.Managed.
func (ta *TollAssessment) State() *state.Store { return ta.store }

// OnTuple implements operator.Operator.
func (ta *TollAssessment) OnTuple(_ operator.Context, t stream.Tuple, emit operator.Emitter) {
	switch p := t.Payload.(type) {
	case TollNotification:
		ta.balances.Update(t.Key, func(a vehicleAccount) vehicleAccount {
			return vehicleAccount{vid: p.VID, balance: a.balance + int64(p.Toll)}
		})
		// Notification continues to the collector, keyed by vehicle.
		emit(t.Key, p)
	case Report:
		if p.Type != TypeBalance {
			return
		}
		acc, _ := ta.balances.Get(t.Key)
		emit(t.Key, BalanceResponse{VID: p.VID, QID: p.QID, Balance: acc.balance})
	}
}

// Balance returns a vehicle's accumulated tolls (for tests).
func (ta *TollAssessment) Balance(vid int32) int64 {
	acc, _ := ta.balances.Get(VehicleKey(vid))
	return acc.balance
}

// Vehicles returns the number of tracked accounts.
func (ta *TollAssessment) Vehicles() int { return ta.balances.Len() }

// TollCollector is the stateless operator gathering toll notifications
// for delivery (ignores balance responses, which flow to the balance
// account operator).
func TollCollector() operator.Operator {
	return operator.Func(func(_ operator.Context, t stream.Tuple, emit operator.Emitter) {
		if n, ok := t.Payload.(TollNotification); ok {
			emit(t.Key, n)
		}
	})
}

// BalanceAccount is the stateful aggregation of balance responses (§6.1:
// "receives the balance account notifications and aggregates the
// results"). It tracks the latest answered balance per vehicle in a
// managed cell and forwards responses to the sink.
type BalanceAccount struct {
	store  *state.Store
	latest *state.Value[int64]
}

// NewBalanceAccount returns an empty balance aggregator.
func NewBalanceAccount() *BalanceAccount {
	st := state.NewStore()
	return &BalanceAccount{store: st, latest: state.NewValue[int64](st, "latest", state.Int64Codec{})}
}

// State implements operator.Managed.
func (ba *BalanceAccount) State() *state.Store { return ba.store }

// OnTuple implements operator.Operator.
func (ba *BalanceAccount) OnTuple(_ operator.Context, t stream.Tuple, emit operator.Emitter) {
	r, ok := t.Payload.(BalanceResponse)
	if !ok {
		return
	}
	ba.latest.Set(t.Key, r.Balance)
	emit(t.Key, r)
}

// Answered returns the number of vehicles with answered balances.
func (ba *BalanceAccount) Answered() int { return ba.latest.Len() }

// Per-tuple CPU costs calibrated for capacity-1 VMs. Cost ratios follow
// the partitioned allocation the paper reports (toll calculator most
// expensive, then forwarder).
const (
	CostForwarder  = 0.00005
	CostTollCalc   = 0.00012
	CostAssessment = 0.00006
	CostCollector  = 0.00002
	CostBalance    = 0.00002
)

// Factories returns the operator factories Topology binds.
func Factories() map[plan.OpID]func() operator.Operator {
	return map[plan.OpID]func() operator.Operator{
		"forwarder":  func() operator.Operator { return Forwarder() },
		"tollcalc":   func() operator.Operator { return NewTollCalculator() },
		"assessment": func() operator.Operator { return NewTollAssessment() },
		"collector":  func() operator.Operator { return TollCollector() },
		"balance":    func() operator.Operator { return NewBalanceAccount() },
	}
}

// SortedVIDs returns the vehicle IDs present in an assessment snapshot,
// for deterministic test assertions.
func SortedVIDs(ta *TollAssessment) []int32 {
	var out []int32
	ta.balances.ForEach(func(_ stream.Key, a vehicleAccount) { out = append(out, a.vid) })
	slices.Sort(out)
	return out
}
