package dist

import (
	"bytes"
	"testing"
	"time"

	"seep/internal/plan"
	"seep/internal/transport"
)

func orphanInst(part int) plan.InstanceID {
	return plan.InstanceID{Op: "count", Part: part}
}

// Checkpoint sequences are monotonic per instance, so a newer ship for
// the same instance replaces the old one instead of accumulating.
func TestOrphanBufferKeepsNewestPerInstance(t *testing.T) {
	w := &Worker{}
	w.bufferShip(orphanInst(1), bytes.Repeat([]byte{1}, 100))
	w.bufferShip(orphanInst(1), bytes.Repeat([]byte{2}, 300))
	if len(w.buffered) != 1 {
		t.Fatalf("buffered %d entries for one instance, want 1", len(w.buffered))
	}
	if w.bufferedBytes != 300 {
		t.Fatalf("bufferedBytes = %d, want 300 (newest ship only)", w.bufferedBytes)
	}
	if got := w.OrphanDropped(); got != 0 {
		t.Fatalf("overwrite counted %d drops, want 0", got)
	}
}

// The byte cap evicts least-recently-updated instances first and counts
// every eviction, so an orphaned worker's memory stays bounded no
// matter how long the coordinator stays dead.
func TestOrphanBufferByteCapEvictsOldest(t *testing.T) {
	const shipBytes = 8 << 20 // 8 entries fill maxOrphanBufBytes exactly
	w := &Worker{}
	body := bytes.Repeat([]byte{7}, shipBytes)
	for i := 0; i < 10; i++ {
		w.bufferShip(orphanInst(i), body)
	}
	if w.bufferedBytes > maxOrphanBufBytes {
		t.Fatalf("buffer holds %d bytes, cap is %d", w.bufferedBytes, maxOrphanBufBytes)
	}
	if got := w.OrphanDropped(); got != 2 {
		t.Fatalf("OrphanDropped = %d, want 2", got)
	}
	for i := 0; i < 2; i++ {
		if _, ok := w.buffered[orphanInst(i)]; ok {
			t.Errorf("oldest instance %d survived eviction", i)
		}
	}
	for i := 2; i < 10; i++ {
		if _, ok := w.buffered[orphanInst(i)]; !ok {
			t.Errorf("newer instance %d was evicted", i)
		}
	}
}

// A single ship larger than the whole cap is still kept (the cap
// bounds accumulation across instances, not one instance's state): the
// reborn coordinator would rather re-collect at the next barrier than
// lose the only copy.
func TestOrphanBufferRetainsSingleOversizedShip(t *testing.T) {
	w := &Worker{}
	w.bufferShip(orphanInst(0), bytes.Repeat([]byte{9}, maxOrphanBufBytes+1))
	if len(w.buffered) != 1 {
		t.Fatalf("oversized ship evicted; buffered = %d entries", len(w.buffered))
	}
	if got := w.OrphanDropped(); got != 0 {
		t.Fatalf("OrphanDropped = %d, want 0", got)
	}
}

// acquireCredit's fast path is silent; an exhausted budget counts one
// stall and blocks until the receiver grants a credit back.
func TestLinkCreditStallCountsAndUnblocksOnGrant(t *testing.T) {
	w := &Worker{tm: &transport.Metrics{}, died: make(chan struct{})}
	pl := &peerLink{addr: "test", q: make(chan linkMsg, 4), credits: make(chan struct{}, 2)}
	pl.refill()

	pl.acquireCredit(w)
	pl.acquireCredit(w)
	if got := w.tm.Snapshot().CreditStalls; got != 0 {
		t.Fatalf("fast path counted %d stalls, want 0", got)
	}

	done := make(chan struct{})
	go func() {
		pl.acquireCredit(w)
		close(done)
	}()
	// The waiter must be stalled, not satisfied: the budget is empty.
	select {
	case <-done:
		t.Fatal("acquireCredit returned with an empty budget and no grant")
	case <-time.After(50 * time.Millisecond):
	}
	pl.credits <- struct{}{} // receiver grants a slot back
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("grant did not unblock the stalled sender")
	}
	if got := w.tm.Snapshot().CreditStalls; got != 1 {
		t.Fatalf("CreditStalls = %d, want 1", got)
	}
}

// When no grant arrives within linkCreditTimeout (grants can be lost
// across re-dials), the budget resyncs to full and the batch ships
// anyway — liveness wins over strict credit accounting.
func TestLinkCreditTimeoutResyncsBudget(t *testing.T) {
	w := &Worker{tm: &transport.Metrics{}, died: make(chan struct{})}
	pl := &peerLink{addr: "test", q: make(chan linkMsg, 4), credits: make(chan struct{}, 3)}
	// Budget starts empty: no refill, no grants coming.
	start := time.Now()
	pl.acquireCredit(w)
	if elapsed := time.Since(start); elapsed < linkCreditTimeout {
		t.Fatalf("acquireCredit returned after %v, before the %v resync escape", elapsed, linkCreditTimeout)
	}
	if got := len(pl.credits); got != cap(pl.credits) {
		t.Fatalf("budget resynced to %d credits, want full capacity %d", got, cap(pl.credits))
	}
	if got := w.tm.Snapshot().CreditStalls; got != 1 {
		t.Fatalf("CreditStalls = %d, want 1", got)
	}
}

// Teardown ends a link through its done channel — the queue stays open,
// so a sender racing the end of the job drops its message instead of
// sending on a closed channel — and link refuses to create another one,
// so a late sender cannot leave a writer goroutine behind.
func TestLinkTeardown(t *testing.T) {
	w, err := NewWorker("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.link("127.0.0.1:1") != nil {
		t.Error("link created before any assignment")
	}
	w.lmu.Lock()
	w.links, w.linkCredits = make(map[string]*peerLink), 4 // what handleAssign arms
	w.lmu.Unlock()
	pl := w.link("127.0.0.1:1")
	if pl == nil || w.link("127.0.0.1:1") != pl {
		t.Fatal("link not created once per address")
	}
	w.Kill()
	select {
	case <-pl.done:
	default:
		t.Fatal("Kill left the link running")
	}
	for i := 0; i < 2*cap(pl.q); i++ {
		pl.enqueue(linkMsg{}) // past the queue's capacity: must not block
	}
	if w.link("127.0.0.1:1") != nil {
		t.Error("link re-created after teardown")
	}
}
