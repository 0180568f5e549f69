// Package transport provides the network substrate for running operator
// nodes on separate machines: a length-prefixed, checksummed binary wire
// format for tuple batches and control messages (using the state/stream
// codecs), persistent peer connections with automatic reconnection, and
// heartbeat-based failure detection — the mechanism behind the paper's
// failure detector (§5), which notifies the recovery coordinator when a
// VM stops responding.
//
// The in-process runtimes (internal/engine, internal/sim) do not need
// this package; the distributed runtime (internal/dist) builds its
// worker-to-worker data links and coordinator control channel on it, so
// a deployment can place instances on real hosts while reusing the same
// operator, state and control code.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"seep/internal/metrics"
	"seep/internal/state"
	"seep/internal/stream"
)

// ProtocolVersion is stamped into every frame header. A peer speaking a
// different version is rejected with a *VersionError rather than
// decoded as garbage.
const ProtocolVersion = uint8(2)

// Frame types on the wire. Retired, and never reused: 1 (one tuple per
// frame), 3 (a batch of per-tuple gob blobs), 4 (an acknowledgement
// trim, now a control message), 6 (a checkpoint barrier, now a control
// message), 7 (a flow-control credit grant; the receiving node's own
// bounded input, felt through the socket, is the flow control) and 9 (an
// incremental checkpoint in a codec of its own; a delta now ships as the
// checkpoint it views, in a control frame). A listener treats them like
// any unknown type and drops the connection.
const (
	frameHeartbeat = uint8(2)
	// frameControl carries an opaque coordinator/worker control message
	// (plan assignment, checkpoint ship, acknowledgement trims, barrier,
	// reroute, deploy, ...).
	frameControl = uint8(5)
	// frameBatch carries a micro-batch of tuples sharing one
	// (from, to, input) route — the unit the engine's batched data path
	// ships between hosts — in the compact binary layout: varint-delta
	// timestamps, uvarint keys and tag-dispatched payloads (see
	// internal/wirecodec).
	frameBatch = uint8(8)
)

// writeStallAfter is how long a single frame write (including any
// injected slow-link delay) may take before it is counted as a credit
// stall: the receiver has stopped reading — its handler is waiting on a
// node's full input — or the link is slow.
const writeStallAfter = 50 * time.Millisecond

// maxFrameBytes bounds a single frame (16 MiB) so a corrupt length
// prefix cannot allocate unbounded memory.
const maxFrameBytes = 16 << 20

// frameHeaderLen is [version:1][type:1][len:4][crc32:4].
const frameHeaderLen = 10

// VersionError reports a frame whose protocol-version byte does not
// match this binary's ProtocolVersion.
type VersionError struct {
	Got, Want uint8
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("transport: protocol version %d, want %d", e.Got, e.Want)
}

// ChecksumError reports a frame whose body failed CRC32 validation —
// corruption on the wire or a desynchronised stream.
type ChecksumError struct {
	Got, Want uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("transport: frame checksum %08x, want %08x", e.Got, e.Want)
}

// FrameSizeError reports a frame whose declared length exceeds
// maxFrameBytes.
type FrameSizeError struct {
	Size uint32
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("transport: frame of %d bytes exceeds %d-byte limit", e.Size, maxFrameBytes)
}

// Metrics tallies transport activity. All methods are safe on a nil
// receiver, so plumbing is optional. The counters surface through
// Job.Metrics() on the distributed runtime.
type Metrics struct {
	bytesSent       metrics.Counter
	bytesReceived   metrics.Counter
	framesSent      metrics.Counter
	framesReceived  metrics.Counter
	reconnects      metrics.Counter
	heartbeatMisses metrics.Counter
	corruptFrames   metrics.Counter
	rejectedFrames  metrics.Counter
	creditStalls    metrics.Counter
}

func (m *Metrics) addSent(bytes int) {
	if m == nil {
		return
	}
	m.framesSent.Inc()
	m.bytesSent.Add(uint64(bytes))
}

func (m *Metrics) addReceived(bytes int) {
	if m == nil {
		return
	}
	m.framesReceived.Inc()
	m.bytesReceived.Add(uint64(bytes))
}

func (m *Metrics) addReconnect() {
	if m == nil {
		return
	}
	m.reconnects.Inc()
}

func (m *Metrics) addHeartbeatMiss() {
	if m == nil {
		return
	}
	m.heartbeatMisses.Inc()
}

func (m *Metrics) addCorrupt() {
	if m == nil {
		return
	}
	m.corruptFrames.Inc()
}

func (m *Metrics) addRejected() {
	if m == nil {
		return
	}
	m.rejectedFrames.Inc()
}

// addCreditStall counts one frame write that exceeded writeStallAfter.
func (m *Metrics) addCreditStall() {
	if m == nil {
		return
	}
	m.creditStalls.Inc()
}

// Stats is a point-in-time snapshot of transport activity.
type Stats struct {
	// BytesSent and BytesReceived count frame bytes (headers + bodies).
	BytesSent, BytesReceived uint64
	// FramesSent and FramesReceived count whole frames, heartbeats
	// included.
	FramesSent, FramesReceived uint64
	// Reconnects counts re-dials of outbound peer connections.
	Reconnects uint64
	// HeartbeatMisses counts probe periods that elapsed without a reply
	// (each contributes toward a peer's MissLimit).
	HeartbeatMisses uint64
	// CorruptFrames counts inbound frames whose body failed its checksum.
	CorruptFrames uint64
	// RejectedFrames counts inbound frames refused by their header: a
	// protocol version other than this binary's, or a length over the
	// frame limit.
	RejectedFrames uint64
	// CreditStalls counts frame writes that ran past writeStallAfter: a
	// slow or faulted link, or a receiver holding the connection unread
	// while its node's input is full.
	CreditStalls uint64
}

// Snapshot returns the current counter values (zero Stats on nil).
func (m *Metrics) Snapshot() Stats {
	if m == nil {
		return Stats{}
	}
	return Stats{
		BytesSent:       m.bytesSent.Value(),
		BytesReceived:   m.bytesReceived.Value(),
		FramesSent:      m.framesSent.Value(),
		FramesReceived:  m.framesReceived.Value(),
		Reconnects:      m.reconnects.Value(),
		HeartbeatMisses: m.heartbeatMisses.Value(),
		CorruptFrames:   m.corruptFrames.Value(),
		RejectedFrames:  m.rejectedFrames.Value(),
		CreditStalls:    m.creditStalls.Value(),
	}
}

// Add folds another snapshot into this one (for aggregating a worker's
// listener and peer meters into one job-level view).
func (s Stats) Add(o Stats) Stats {
	s.BytesSent += o.BytesSent
	s.BytesReceived += o.BytesReceived
	s.FramesSent += o.FramesSent
	s.FramesReceived += o.FramesReceived
	s.Reconnects += o.Reconnects
	s.HeartbeatMisses += o.HeartbeatMisses
	s.CorruptFrames += o.CorruptFrames
	s.RejectedFrames += o.RejectedFrames
	s.CreditStalls += o.CreditStalls
	return s
}

// writeFrame writes [version][type][len][crc32][body] to w.
func writeFrame(w io.Writer, m *Metrics, frameType uint8, body []byte) error {
	var hdr [frameHeaderLen]byte
	hdr[0] = ProtocolVersion
	hdr[1] = frameType
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[6:10], crc32.ChecksumIEEE(body))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	m.addSent(frameHeaderLen + len(body))
	return nil
}

// readFrame reads one frame from r, validating version, length and
// checksum before any body byte is interpreted. When scratch is non-nil
// a frame other than a control frame is read into (and may grow)
// *scratch, so a long-lived connection loop pays zero steady-state
// allocation per batch; the returned slice then aliases *scratch and is
// only valid until the next call. A control frame's body is always a
// buffer of its own, for its handler to keep: a checkpoint or a deploy
// is read once, and the connection does not pin the largest one it saw.
func readFrame(r io.Reader, m *Metrics, scratch *[]byte) (uint8, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[0] != ProtocolVersion {
		m.addRejected()
		return 0, nil, &VersionError{Got: hdr[0], Want: ProtocolVersion}
	}
	n := binary.LittleEndian.Uint32(hdr[2:6])
	if n > maxFrameBytes {
		m.addRejected()
		return 0, nil, &FrameSizeError{Size: n}
	}
	want := binary.LittleEndian.Uint32(hdr[6:10])
	var body []byte
	if scratch != nil && hdr[1] != frameControl {
		if uint32(cap(*scratch)) < n {
			*scratch = make([]byte, n)
		}
		body = (*scratch)[:n]
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	if got := crc32.ChecksumIEEE(body); got != want {
		m.addCorrupt()
		return 0, nil, &ChecksumError{Got: got, Want: want}
	}
	m.addReceived(frameHeaderLen + int(n))
	return hdr[1], body, nil
}

// Handlers receives decoded inbound frames. Nil entries drop the
// corresponding frame type. Handlers are called sequentially per
// connection; blocking in a handler applies backpressure to that
// sender.
type Handlers struct {
	// OnBatch receives tuple-batch frames.
	OnBatch func(Batch)
	// OnControl receives opaque control-message bodies. Each body is the
	// buffer the frame was read into, allocated for it alone: the callee
	// owns it, may keep it or slices of it, and no later frame writes to
	// it.
	OnControl func(body []byte)
}

// Listener accepts frames from peers and hands decoded payloads to the
// registered handlers. It also answers heartbeats, so a connected
// peer's failure detector sees this host as alive.
type Listener struct {
	ln       net.Listener
	codec    state.PayloadCodec
	handlers Handlers
	metrics  *Metrics

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
}

// ListenWith starts accepting on addr (e.g. "127.0.0.1:0") with the
// given handler set and optional metrics.
func ListenWith(addr string, codec state.PayloadCodec, h Handlers, m *Metrics) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	l := &Listener{ln: ln, codec: codec, handlers: h, metrics: m, conns: make(map[net.Conn]bool)}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = true
		l.mu.Unlock()
		l.wg.Add(1)
		go l.serve(conn)
	}
}

func (l *Listener) serve(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriter(conn)
	var wmu sync.Mutex
	// Batch bodies are read into one per-connection scratch buffer, and
	// decoded values copy what they keep; a control body is read into a
	// buffer of its own, which its handler keeps (readFrame).
	var scratch []byte
	for {
		frameType, body, err := readFrame(r, l.metrics, &scratch)
		if err != nil {
			// Version, checksum and length violations poison the stream
			// framing; drop the connection and let the peer reconnect
			// rather than resynchronise heuristically.
			return
		}
		switch frameType {
		case frameHeartbeat:
			wmu.Lock()
			if err := writeFrame(w, l.metrics, frameHeartbeat, nil); err == nil {
				err = w.Flush()
			}
			wmu.Unlock()
			if err != nil {
				return
			}
		case frameBatch:
			b, err := decodeBatch(stream.NewDecoder(body), l.codec)
			if err != nil {
				return
			}
			if l.handlers.OnBatch != nil {
				l.handlers.OnBatch(b)
			}
		case frameControl:
			if l.handlers.OnControl != nil {
				l.handlers.OnControl(body)
			}
		default:
			return
		}
	}
}

// Close stops accepting and tears down all connections.
func (l *Listener) Close() error {
	l.mu.Lock()
	l.closed = true
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

// ErrPeerClosed reports sends on a closed peer.
var ErrPeerClosed = errors.New("transport: peer closed")

// ErrPeerDown reports sends on a peer the failure detector declared
// failed.
var ErrPeerDown = errors.New("transport: peer down")

// Peer is an outbound connection to one host, with heartbeat-based
// failure detection: if the peer misses MissLimit consecutive heartbeat
// replies, OnDown fires — the signal the recovery coordinator consumes
// ("the SPS ... scales out an operator when it has become unresponsive",
// §4.2). A failed write triggers one automatic re-dial before the send
// is failed, so transient connection loss does not require caller
// plumbing.
type Peer struct {
	addr  string
	codec state.PayloadCodec
	// HeartbeatEvery is the probe period (default 500 ms).
	HeartbeatEvery time.Duration
	// MissLimit is how many consecutive missed replies mark the peer
	// down (default 3).
	MissLimit int
	// WriteTimeout bounds each frame write+flush so a hung peer cannot
	// wedge senders forever (default 10 s).
	WriteTimeout time.Duration
	// OnDown is invoked once when the peer is declared failed.
	OnDown func()
	// Metrics, when set, tallies this peer's traffic.
	Metrics *Metrics

	mu      sync.Mutex
	conn    net.Conn
	w       *bufio.Writer
	closed  bool
	downed  bool
	pending int // heartbeats sent without reply
	wg      sync.WaitGroup
	stop    chan struct{}
	sent    uint64
}

// Dial connects to a listener.
func Dial(addr string, codec state.PayloadCodec) (*Peer, error) {
	return DialWith(addr, codec, nil)
}

// DialWith connects to a listener with metrics attached before the read
// loop starts (assigning Peer.Metrics after Dial races it).
func DialWith(addr string, codec state.PayloadCodec, m *Metrics) (*Peer, error) {
	p := &Peer{
		addr:           addr,
		codec:          codec,
		HeartbeatEvery: 500 * time.Millisecond,
		MissLimit:      3,
		WriteTimeout:   10 * time.Second,
		Metrics:        m,
		stop:           make(chan struct{}),
	}
	if err := p.connect(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Peer) connect() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.connectLocked()
}

// connectLocked (re)establishes the connection.
//
// seep:locks p.mu
func (p *Peer) connectLocked() error {
	conn, err := net.DialTimeout("tcp", p.addr, 2*time.Second)
	if err != nil {
		return fmt.Errorf("transport: dial %s: %w", p.addr, err)
	}
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = conn
	p.w = bufio.NewWriterSize(conn, 32<<10)
	p.wg.Add(1)
	go p.readLoop(conn)
	return nil
}

// StartHeartbeat begins probing; call once after Dial.
func (p *Peer) StartHeartbeat() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(p.HeartbeatEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.mu.Lock()
				if p.pending > 0 {
					p.Metrics.addHeartbeatMiss()
				}
				p.pending++
				missed := p.pending
				if !p.closed && p.w != nil {
					_ = p.writeLocked(frameHeartbeat, nil)
				}
				p.mu.Unlock()
				if missed > p.MissLimit {
					p.declareDown()
					return
				}
			}
		}
	}()
}

func (p *Peer) readLoop(conn net.Conn) {
	defer p.wg.Done()
	r := bufio.NewReader(conn)
	var scratch []byte
	for {
		frameType, _, err := readFrame(r, p.Metrics, &scratch)
		if err != nil {
			return
		}
		if frameType == frameHeartbeat {
			p.mu.Lock()
			p.pending = 0
			p.mu.Unlock()
		}
	}
}

func (p *Peer) declareDown() {
	p.mu.Lock()
	already := p.downed || p.closed
	p.downed = true
	conn := p.conn
	p.mu.Unlock()
	if already {
		return
	}
	// Unblock any writer stuck in a send to the unresponsive host.
	if conn != nil {
		conn.Close()
	}
	if p.OnDown != nil {
		p.OnDown()
	}
}

// writeLocked writes one frame and flushes under a write deadline. The
// deadline is anchored before the injected slow-link delay, so a
// faulted link eats into the write budget instead of silently extending
// it, and any write that runs past writeStallAfter is counted as a
// credit stall.
//
// seep:locks p.mu
func (p *Peer) writeLocked(frameType uint8, body []byte) error {
	start := time.Now()
	// Chaos-harness fault injection: the disarmed path is one atomic
	// pointer load (see faults.go).
	if f, ok := faultFor(p.addr); ok {
		if f.Drop {
			// Black-holed: the frame vanishes on the wire. Reported as
			// success so the sender neither re-dials nor errors — data
			// loss is covered by upstream retention and replay, and the
			// silence is what trips the heartbeat failure detector.
			return nil
		}
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
	}
	if p.conn != nil && p.WriteTimeout > 0 {
		_ = p.conn.SetWriteDeadline(start.Add(p.WriteTimeout))
	}
	err := writeFrame(p.w, p.Metrics, frameType, body)
	if err == nil {
		err = p.w.Flush()
	}
	if p.conn != nil {
		_ = p.conn.SetWriteDeadline(time.Time{})
	}
	if time.Since(start) >= writeStallAfter {
		p.Metrics.addCreditStall()
	}
	return err
}

// sendFrame transmits one frame, re-dialling once on a failed write. A
// body over maxFrameBytes is refused here: the receiver would reject its
// header as corrupt and drop the connection under every other sender.
func (p *Peer) sendFrame(frameType uint8, body []byte) error {
	if len(body) > maxFrameBytes {
		return &FrameSizeError{Size: uint32(len(body))}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPeerClosed
	}
	if p.downed {
		return ErrPeerDown
	}
	if p.w != nil {
		if err := p.writeLocked(frameType, body); err == nil {
			p.sent++
			return nil
		}
	}
	// The connection is gone (or was never established): one reconnect
	// attempt, then fail the send to the caller.
	if err := p.connectLocked(); err != nil {
		return err
	}
	p.Metrics.addReconnect()
	if err := p.writeLocked(frameType, body); err != nil {
		return err
	}
	p.sent++
	return nil
}

// encPool recycles batch encoders across sends. sendFrame copies the
// body into the connection's write buffer before returning, so the
// encoder can go straight back to the pool.
var encPool = sync.Pool{New: func() any { return stream.NewEncoder(4 << 10) }}

// SendBatch transmits one tuple batch. Sends after Close or after the
// peer went down return an error; callers retain tuples in buffer state
// and replay them to the replacement instance, so a failed send is never
// data loss.
func (p *Peer) SendBatch(b Batch) error {
	e := encPool.Get().(*stream.Encoder)
	e.Reset()
	err := encodeBatch(e, b, p.codec)
	if err == nil {
		err = p.sendFrame(frameBatch, e.Bytes())
	}
	encPool.Put(e)
	return err
}

// SendControl transmits one opaque control-message body.
func (p *Peer) SendControl(body []byte) error {
	return p.sendFrame(frameControl, body)
}

// Sent returns how many non-heartbeat frames were transmitted.
func (p *Peer) Sent() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent
}

// Down reports whether the failure detector declared the peer failed.
func (p *Peer) Down() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.downed
}

// Close tears the connection down.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conn := p.conn
	p.mu.Unlock()
	close(p.stop)
	var err error
	if conn != nil {
		err = conn.Close()
	}
	p.wg.Wait()
	return err
}
