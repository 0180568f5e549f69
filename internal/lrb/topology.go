package lrb

import (
	"seep"
)

// Topology declares the LRB query (Fig. 5) with the public fluent
// builder: the assessment operator fans out to a collector and a
// balance account, which fan back into the sink, so every stream is
// declared with an explicit Connect.
func Topology() (*seep.Topology, error) {
	fs := Factories()
	return seep.NewTopology().
		Source("feeder").
		Stateless("forwarder", fs["forwarder"], seep.Cost(CostForwarder)).
		Stateful("tollcalc", fs["tollcalc"], seep.Cost(CostTollCalc)).
		Stateful("assessment", fs["assessment"], seep.Cost(CostAssessment)).
		Stateless("collector", fs["collector"], seep.Cost(CostCollector)).
		Stateful("balance", fs["balance"], seep.Cost(CostBalance)).
		Sink("sink").
		Connect("feeder", "forwarder").
		Connect("forwarder", "tollcalc").
		Connect("tollcalc", "assessment").
		Connect("assessment", "collector").
		Connect("assessment", "balance").
		Connect("collector", "sink").
		Connect("balance", "sink").
		Build()
}
