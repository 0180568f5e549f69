package dist

import (
	"testing"
	"time"
)

// An orphaned worker's standby redial can land before startRecover has
// restored the books. The coordinator drops that inventory instead of
// dialing and heartbeating the worker: startRecover would overwrite the
// peer without closing it, and the peer's OnDown would keep the
// coordinator reachable.
func TestUnsolicitedInventoryBeforeBooksIsDropped(t *testing.T) {
	w, err := NewWorker("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Kill()
	c, err := newCoordinator(Config{Addr: "127.0.0.1:0"}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.post(event{kind: evCtl, addr: w.Addr(), ctl: &Control{Kind: MsgReattach, From: w.Addr()}})
	dialed := -1
	if err := c.call(5*time.Second, func(done chan error) {
		dialed = 0
		for _, ref := range c.workers {
			if ref.peer != nil {
				dialed++
			}
		}
		done <- nil
	}); err != nil {
		t.Fatal(err)
	}
	if dialed != 0 {
		t.Errorf("coordinator dialed %d peers before its books exist, want 0", dialed)
	}
}
