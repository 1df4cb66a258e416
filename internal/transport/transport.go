// Package transport runs protocol state machines over real TCP
// connections, turning the same types.Machine implementations that the
// simulator drives into deployable processes.
//
// The paper's model assumes authenticated point-to-point channels (not
// authenticated messages): each connection starts with a hello frame naming
// the sender, standing in for the channel authentication a production
// deployment would get from mTLS or a fixed mesh. Framing is 4-byte
// big-endian length + the shared wire encoding of internal/types; a frame
// is built once, in one buffer, and shared by every peer it goes to.
//
// Concurrency model: one event loop goroutine owns the Machine (deliveries
// and timer fires are serialized through one channel, so Machines stay
// single-threaded as required); one reader goroutine per inbound
// connection, reading through a small buffer so a frame's length and
// payload are one system call; one writer goroutine per peer with
// reconnect-and-retry, which puts everything queued for its peer at a
// wake-up into one write. All goroutines are owned by the Runtime and joined
// by Close.
//
// Fault injection: Kill hard-stops a runtime the way a crashing process
// would (listener gone, connections reset mid-stream), and Config.Chaos
// installs a deterministic frame-level interceptor on outbound links
// (seeded drop/delay/duplicate/partition) — see chaos.go.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tetrabft/internal/obs"
	"tetrabft/internal/types"
)

// maxFrame bounds a single wire frame (defense against bogus lengths).
const maxFrame = 1 << 20

// frameHeader is the length prefix of a frame.
const frameHeader = 4

// linkBuf is where a writer stops adding queued frames to one write, and the
// largest buffer a reader or writer keeps between frames (a larger frame
// gets a buffer of its own that is dropped afterwards). Every link of every
// replica holds one in each direction, so it stays small.
const linkBuf = 16 << 10

const (
	initialBackoff = 10 * time.Millisecond
	maxBackoff     = time.Second
)

// Tick is the wall time of one virtual tick (the types.Duration unit): a
// node configured with Δ = 10 ticks times out after 90ms of real time.
const Tick = time.Millisecond

// Config parameterizes a runtime.
type Config struct {
	// ListenAddr is the TCP address to listen on (e.g. "127.0.0.1:0").
	ListenAddr string
	// OnDecide observes decisions (called from the event loop goroutine).
	OnDecide func(slot types.Slot, val types.Value)
	// Chaos optionally intercepts outbound frames with seeded
	// drop/delay/duplicate/partition faults (nil = clean links).
	Chaos *Chaos
	// HeldFrameTTL bounds how long the writer retries one frame across
	// reconnects before abandoning it as stale (graceful degradation when
	// a peer stays down; the protocols retransmit). Default 5s.
	HeldFrameTTL time.Duration
	// Metrics optionally counts transport activity (frames sent/received,
	// bytes, reconnects, dropped frames). Nil — the default — resolves
	// no-op counters; the frame paths pay one nil check each.
	Metrics *obs.Registry
}

// Runtime hosts one Machine over TCP.
type Runtime struct {
	machine types.Machine
	cfg     Config
	ln      net.Listener
	started time.Time

	events chan event
	done   chan struct{}
	wg     sync.WaitGroup

	// peers and links are the same outbound links by id and in id order.
	// SetPeers fills them before Run and nothing changes them afterwards, so
	// the event loop reads both without the lock.
	peers map[types.NodeID]*peer
	links []*peer
	// dial opens an outbound connection (net.Dial; tests count its writes).
	dial func(network, addr string) (net.Conn, error)

	mu       sync.Mutex
	timers   map[uint64]*time.Timer // the machine's timers and delayed frames
	timerSeq uint64
	conns    map[net.Conn]struct{}
	closed   bool
	killed   bool

	closeOnce sync.Once

	// Pre-resolved metric instruments (nil and free when Config.Metrics
	// is nil).
	mFramesSent *obs.Counter
	mFramesRecv *obs.Counter
	mBytesSent  *obs.Counter
	mBytesRecv  *obs.Counter
	mReconnects *obs.Counter
	mDropped    *obs.Counter
}

type event struct {
	timer   bool
	timerID types.TimerID
	from    types.NodeID
	msg     types.Message
	// fn, when non-nil, is a closure to execute on the event loop
	// (see Do); the other fields are ignored.
	fn func()
}

// Do runs fn on the event-loop goroutine — serialized with message
// deliveries and timer fires — and waits for it to return. The hosted
// Machine has no internal locking, so this is the only safe way to read
// its state (finalized chain, watermark) while the runtime is live; the
// sharded scenario engine's anchoring loop and HTTP gateway snapshot
// replica chains through it. It reports false, without running fn, when
// the runtime is closed or killed first.
func (r *Runtime) Do(fn func()) bool {
	ran := make(chan struct{})
	ev := event{fn: func() { fn(); close(ran) }}
	select {
	case r.events <- ev:
	case <-r.done:
		return false
	}
	select {
	case <-ran:
		return true
	case <-r.done:
		// The loop may still drain the event between our enqueue and its
		// shutdown; only report success if fn actually ran.
		select {
		case <-ran:
			return true
		default:
			return false
		}
	}
}

// peer is one outbound link. ordinal is touched only from the event loop
// goroutine (env.Send); the counters are shared with the writer goroutine.
// queue carries whole frames (header + payload), read-only once queued: a
// broadcast puts the same frame on every link.
type peer struct {
	id      types.NodeID
	addr    string
	queue   chan []byte
	ordinal uint64

	connects        atomic.Int64
	droppedFrames   atomic.Int64
	chaosDropped    atomic.Int64
	chaosDuplicated atomic.Int64
}

// PeerStats counts one outbound link's health events.
type PeerStats struct {
	// Reconnects counts successful re-dials after the first connect.
	Reconnects int64
	// DroppedFrames counts frames abandoned: send-queue overflow, or a
	// frame held past HeldFrameTTL while the peer stayed unreachable.
	DroppedFrames int64
	// ChaosDropped counts frames the chaos policy dropped.
	ChaosDropped int64
	// ChaosDuplicated counts frames the chaos policy duplicated.
	ChaosDuplicated int64
}

// New creates a runtime and starts listening; call SetPeers then Run.
func New(machine types.Machine, cfg Config) (*Runtime, error) {
	if cfg.HeldFrameTTL <= 0 {
		cfg.HeldFrameTTL = 5 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	r := &Runtime{
		machine: machine,
		cfg:     cfg,
		ln:      ln,
		events:  make(chan event, 4096),
		done:    make(chan struct{}),
		peers:   make(map[types.NodeID]*peer),
		dial:    net.Dial,
		timers:  make(map[uint64]*time.Timer),
		conns:   make(map[net.Conn]struct{}),
	}
	r.mFramesSent = cfg.Metrics.Counter("transport_frames_sent_total")
	r.mFramesRecv = cfg.Metrics.Counter("transport_frames_received_total")
	r.mBytesSent = cfg.Metrics.Counter("transport_bytes_sent_total")
	r.mBytesRecv = cfg.Metrics.Counter("transport_bytes_received_total")
	r.mReconnects = cfg.Metrics.Counter("transport_reconnects_total")
	r.mDropped = cfg.Metrics.Counter("transport_frames_dropped_total")
	return r, nil
}

// Addr returns the bound listen address (useful with ":0").
func (r *Runtime) Addr() string { return r.ln.Addr().String() }

// SetPeers declares the full membership (self may be included; it is
// served locally). Must be called before Run.
func (r *Runtime) SetPeers(addrs map[types.NodeID]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, addr := range addrs {
		if id == r.machine.ID() {
			continue
		}
		r.peers[id] = &peer{id: id, addr: addr, queue: make(chan []byte, 1024)}
	}
	r.links = r.links[:0]
	for _, p := range r.peers {
		r.links = append(r.links, p)
	}
	sort.Slice(r.links, func(i, j int) bool { return r.links[i].id < r.links[j].id })
}

// Run starts the accept loop, peer writers and the event loop. It returns
// immediately; Close shuts everything down.
func (r *Runtime) Run() {
	r.started = time.Now()
	r.wg.Add(1)
	go r.acceptLoop()
	for _, p := range r.links {
		r.wg.Add(1)
		go r.writeLoop(p)
	}
	r.wg.Add(1)
	go r.eventLoop()
}

// Close stops the runtime and waits for every goroutine to exit.
func (r *Runtime) Close() {
	r.closeOnce.Do(func() {
		close(r.done)
		r.ln.Close()
		r.mu.Lock()
		r.closed = true
		for _, t := range r.timers {
			t.Stop()
		}
		r.timers = nil
		for conn := range r.conns {
			if r.killed {
				// Reset instead of FIN: peers see a connection that died
				// mid-stream, exactly like a crashed process.
				if tc, ok := conn.(*net.TCPConn); ok {
					tc.SetLinger(0)
				}
			}
			conn.Close()
		}
		r.conns = nil
		r.mu.Unlock()
	})
	r.wg.Wait()
}

// Kill hard-stops the runtime the way a crashing process would: the
// listener vanishes and every live connection is reset (RST via SO_LINGER
// 0) rather than cleanly closed, so peers observe a mid-stream failure.
// Pending frames and timers are abandoned. Like Close, Kill joins every
// goroutine before returning; the WAL (if any) retains whatever the hosted
// machine last persisted, ready for a Restore-based relaunch.
func (r *Runtime) Kill() {
	r.mu.Lock()
	r.killed = true
	r.mu.Unlock()
	r.Close()
}

// Stats snapshots the per-peer link counters.
func (r *Runtime) Stats() map[types.NodeID]PeerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[types.NodeID]PeerStats, len(r.peers))
	for id, p := range r.peers {
		reconnects := p.connects.Load() - 1
		if reconnects < 0 {
			reconnects = 0
		}
		out[id] = PeerStats{
			Reconnects:      reconnects,
			DroppedFrames:   p.droppedFrames.Load(),
			ChaosDropped:    p.chaosDropped.Load(),
			ChaosDuplicated: p.chaosDuplicated.Load(),
		}
	}
	return out
}

// ActiveTimers reports the number of pending (unfired) timers: the hosted
// machine's, and the chaos policy's delayed frames. Fired and stopped timers
// are pruned, so this stays bounded over long runs.
func (r *Runtime) ActiveTimers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.timers)
}

// track registers a connection for shutdown; returns false (and closes the
// connection) when the runtime is already closing.
func (r *Runtime) track(conn net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		conn.Close()
		return false
	}
	r.conns[conn] = struct{}{}
	return true
}

func (r *Runtime) untrack(conn net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conns != nil {
		delete(r.conns, conn)
	}
}

func (r *Runtime) eventLoop() {
	defer r.wg.Done()
	env := &env{r: r}
	r.machine.Start(env)
	env.drainSelf()
	for {
		select {
		case <-r.done:
			return
		case ev := <-r.events:
			switch {
			case ev.fn != nil:
				ev.fn()
			case ev.timer:
				r.machine.Tick(env, ev.timerID)
			default:
				r.machine.Deliver(env, ev.from, ev.msg)
			}
			env.drainSelf()
		}
	}
}

func (r *Runtime) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			select {
			case <-r.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		if !r.track(conn) {
			return
		}
		r.wg.Add(1)
		go r.readLoop(conn)
	}
}

func (r *Runtime) readLoop(conn net.Conn) {
	defer r.wg.Done()
	defer r.untrack(conn)
	defer conn.Close()

	// Hello frame: the peer's declared identity (the "authenticated
	// channel" stand-in; see the package comment). Close/Kill unblock the
	// reads below by closing the tracked connection.
	br := bufio.NewReader(conn)
	var hello [8]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return
	}
	from := types.NodeID(binary.BigEndian.Uint64(hello[:]))

	// Decode copies what it keeps, so one payload buffer serves every frame.
	var buf []byte
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			return
		}
		if cap(payload) <= linkBuf {
			buf = payload
		}
		r.mFramesRecv.Inc()
		r.mBytesRecv.Add(int64(len(payload)))
		msg, err := types.Decode(payload)
		if err != nil {
			continue // garbage from this peer; keep the channel open
		}
		select {
		case r.events <- event{from: from, msg: msg}:
		case <-r.done:
			return
		}
	}
}

// writeLoop owns one outbound link. Each wake-up takes everything queued
// for the peer (up to linkBuf bytes) and puts it on the wire in one
// write: a leader's vote for slot s and its proposal for s+1 leave together.
// What was taken is held until it is written to a live connection or it ages
// past HeldFrameTTL — a dial failure, a failed hello, or a mid-stream write
// error does not lose it silently; it rides to the next reconnect (frames at
// the front of a write that broke midway may then arrive twice; the
// protocols' messages are idempotent). Reconnects use exponential backoff
// with jitter, capped at maxBackoff.
func (r *Runtime) writeLoop(p *peer) {
	defer r.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			r.untrack(conn)
			conn.Close()
		}
	}()
	backoff := initialBackoff
	var held []byte // the frames of one write, back to back
	var heldFrames int
	var heldSince time.Time
	for {
		if heldFrames == 0 {
			if cap(held) > linkBuf {
				held = nil
			}
			select {
			case <-r.done:
				return
			case frame := <-p.queue:
				held, heldFrames = gather(held[:0], frame, p.queue)
				heldSince = time.Now()
			}
		}
		if conn == nil {
			c, err := r.dial("tcp", p.addr)
			if err == nil {
				var hello [8]byte
				binary.BigEndian.PutUint64(hello[:], uint64(r.machine.ID()))
				if _, werr := c.Write(hello[:]); werr != nil {
					c.Close()
				} else if !r.track(c) {
					return
				} else {
					conn = c
					backoff = initialBackoff
					if p.connects.Add(1) > 1 {
						r.mReconnects.Inc()
					}
				}
			}
			if conn == nil {
				// Degrade gracefully while the peer stays down: frames
				// held past their TTL are stale (the protocol will have
				// retransmitted), so drop them, count them, and move on.
				if time.Since(heldSince) > r.cfg.HeldFrameTTL {
					p.droppedFrames.Add(int64(heldFrames))
					r.mDropped.Add(int64(heldFrames))
					heldFrames = 0
				}
				select {
				case <-r.done:
					return
				case <-time.After(jitter(backoff)):
				}
				if backoff < maxBackoff {
					backoff *= 2
				}
				continue
			}
		}
		if _, err := conn.Write(held); err != nil {
			r.untrack(conn)
			conn.Close()
			conn = nil
			continue // the held frames retry on the next reconnect
		}
		r.mFramesSent.Add(int64(heldFrames))
		r.mBytesSent.Add(int64(len(held) - frameHeader*heldFrames))
		heldFrames = 0
	}
}

// gather appends first and then whatever else is already queued to buf,
// stopping once buf holds linkBuf bytes, and returns it with the number
// of frames it holds.
func gather(buf, first []byte, queue <-chan []byte) ([]byte, int) {
	buf = append(buf, first...)
	frames := 1
	for len(buf) < linkBuf {
		select {
		case frame := <-queue:
			buf = append(buf, frame...)
			frames++
		default:
			return buf, frames
		}
	}
	return buf, frames
}

// jitter spreads reconnect attempts over [d/2, d) so a cluster of writers
// does not thunder against a restarting peer in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)))
}

// readFrame reads one frame's payload into buf, growing it when the frame
// does not fit.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var lenBuf [frameHeader]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(lenBuf[:])
	if size > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	if uint32(cap(buf)) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// encodeFrame builds msg's wire frame — length prefix and payload — in one
// exactly sized buffer.
func encodeFrame(msg types.Message) []byte {
	size := types.EncodedSize(msg)
	frame := make([]byte, frameHeader, frameHeader+size)
	binary.BigEndian.PutUint32(frame, uint32(size))
	return types.AppendEncode(frame, msg)
}

// env implements types.Env for the hosted machine. Self-deliveries are
// queued locally and drained by the event loop right after the current
// handler returns, matching the simulator's immediate self-delivery.
type env struct {
	r    *Runtime
	self []event
}

func (e *env) Now() types.Time {
	return types.Time(time.Since(e.r.started) / Tick)
}

func (e *env) Send(to types.NodeID, msg types.Message) {
	if to == e.r.machine.ID() {
		e.self = append(e.self, event{from: to, msg: msg})
		return
	}
	if p, ok := e.r.peers[to]; ok { // unknown peer: drop, as the simulator does
		e.r.post(p, encodeFrame(msg))
	}
}

// Broadcast encodes msg once; every link queues the same frame.
func (e *env) Broadcast(msg types.Message) {
	frame := encodeFrame(msg)
	for _, p := range e.r.links {
		e.r.post(p, frame)
	}
	e.Send(e.r.machine.ID(), msg)
}

// post puts one frame on one link, through the chaos policy if there is one.
// Called from the event loop only.
func (r *Runtime) post(p *peer, frame []byte) {
	if ch := r.cfg.Chaos; ch != nil {
		// The per-link frame ordinal keys the chaos decision, so a fixed
		// seed yields the same drop/dup/delay verdict for the k-th frame
		// on each link regardless of wall-clock interleaving.
		ord := p.ordinal
		p.ordinal++
		act := ch.Decide(r.machine.ID(), p.id, ord, time.Since(r.started))
		if act.Drop {
			p.chaosDropped.Add(1)
			return
		}
		if act.Duplicate {
			p.chaosDuplicated.Add(1)
			r.enqueue(p, frame)
		}
		if act.Delay > 0 {
			r.delay(p, frame, act.Delay)
			return
		}
	}
	r.enqueue(p, frame)
}

// delay puts frame on p's queue after d, unless the runtime closes first.
// The timer sits in timers like a machine's until it fires, so Close stops
// it, and a fire that races Close enqueues nothing once closed is set: no
// frame lands in a link queue after Close returns.
func (r *Runtime) delay(p *peer, frame []byte, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.timerSeq++
	seq := r.timerSeq
	r.timers[seq] = time.AfterFunc(d, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if !r.closed {
			delete(r.timers, seq)
			r.enqueue(p, frame)
		}
	})
}

// enqueue hands a frame to the peer's writer, dropping (and counting) on
// backpressure overflow — the protocols tolerate loss and retransmit.
func (r *Runtime) enqueue(p *peer, frame []byte) {
	select {
	case p.queue <- frame:
	default:
		p.droppedFrames.Add(1)
		r.mDropped.Inc()
	}
}

func (e *env) SetTimer(id types.TimerID, d types.Duration) {
	r := e.r
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.timerSeq++
	seq := r.timerSeq
	timer := time.AfterFunc(time.Duration(d)*Tick, func() {
		// Prune first: a fired timer must not linger in the set whether or
		// not the event can still be delivered.
		r.mu.Lock()
		if r.timers != nil {
			delete(r.timers, seq)
		}
		r.mu.Unlock()
		select {
		case r.events <- event{timer: true, timerID: id}:
		case <-r.done:
		}
	})
	r.timers[seq] = timer
	r.mu.Unlock()
}

func (e *env) Decide(slot types.Slot, val types.Value) {
	if e.r.cfg.OnDecide != nil {
		e.r.cfg.OnDecide(slot, val)
	}
}

// drainSelf delivers queued self-messages until none remain.
func (e *env) drainSelf() {
	for len(e.self) > 0 {
		ev := e.self[0]
		e.self = e.self[1:]
		e.r.machine.Deliver(e, ev.from, ev.msg)
	}
}
