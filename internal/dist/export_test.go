package dist

import (
	"time"

	"seep/internal/control"
)

// PostReport feeds one MsgReport round through the coordinator's event
// loop, exactly as a worker's report frame arrives there, and returns
// once the loop has consumed it: whatever the round decided is by then
// in flight and counted by Pending.
func (c *Coordinator) PostReport(from string, reports []control.Report) {
	c.post(event{kind: evCtl, addr: from, ctl: &Control{Kind: MsgReport, From: from, Reports: reports}})
	_ = c.call(10*time.Second, func(done chan error) { done <- nil })
}
