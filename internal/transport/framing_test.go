package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tetrabft/internal/types"
)

// sinkMachine hands every delivered message to the test.
type sinkMachine struct {
	id  types.NodeID
	got chan types.Message
}

func (m *sinkMachine) ID() types.NodeID              { return m.id }
func (m *sinkMachine) Start(types.Env)               {}
func (m *sinkMachine) Tick(types.Env, types.TimerID) {}
func (m *sinkMachine) Deliver(_ types.Env, _ types.NodeID, msg types.Message) {
	m.got <- msg
}

func newSink(t *testing.T) (*Runtime, *sinkMachine) {
	t.Helper()
	m := &sinkMachine{id: 9, got: make(chan types.Message, 64)}
	rt, err := New(m, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	t.Cleanup(rt.Close)
	return rt, m
}

// expect waits for the sink's next message and compares it.
func (m *sinkMachine) expect(t *testing.T, want types.Message) {
	t.Helper()
	select {
	case got := <-m.got:
		if got != want {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%v was never delivered", want)
	}
}

// dialRaw connects to rt as node 1 and sends the hello.
func dialRaw(t *testing.T, rt *Runtime) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", rt.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var hello [8]byte
	binary.BigEndian.PutUint64(hello[:], 1)
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestFramesSharingASegment: several frames written back to back — what a
// peer's writer does with everything queued at a wake-up — are all delivered,
// in order.
func TestFramesSharingASegment(t *testing.T) {
	rt, sink := newSink(t)
	conn := dialRaw(t, rt)
	msgs := []types.Message{
		types.MSVote{Slot: 4, View: 0, Block: types.Block{Slot: 4}.ID()},
		types.MSViewChange{Slot: 5, View: 2},
		types.MSVote{Slot: 6, View: 1, Block: types.Block{Slot: 6}.ID()},
	}
	var segment []byte
	for _, m := range msgs {
		segment = append(segment, encodeFrame(m)...)
	}
	if _, err := conn.Write(segment); err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		sink.expect(t, m)
	}
}

// TestFrameSplitAcrossSegments: a frame whose header and payload arrive in
// separate segments (cut inside the length prefix, then inside the payload)
// is delivered once it is whole.
func TestFrameSplitAcrossSegments(t *testing.T) {
	rt, sink := newSink(t)
	conn := dialRaw(t, rt)
	want := types.MSVote{Slot: 7, View: 3, Block: types.Block{Slot: 7}.ID()}
	frame := encodeFrame(want)
	for _, part := range [][]byte{frame[:2], frame[2:10], frame[10:]} {
		if _, err := conn.Write(part); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond) // let the segment leave on its own
	}
	sink.expect(t, want)
}

// TestOversizedFrameClosesConnection: a length above maxFrame is a protocol
// violation and still ends the connection.
func TestOversizedFrameClosesConnection(t *testing.T) {
	rt, _ := newSink(t)
	conn := dialRaw(t, rt)
	var header [frameHeader]byte
	binary.BigEndian.PutUint32(header[:], maxFrame+1)
	if _, err := conn.Write(header[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("the runtime kept a connection that announced an oversized frame")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("the runtime never closed the connection after an oversized frame")
	}
}

// TestGarbagePayloadKeepsConnection: a well-framed payload that does not
// decode is skipped and the frames after it are still delivered.
func TestGarbagePayloadKeepsConnection(t *testing.T) {
	rt, sink := newSink(t)
	conn := dialRaw(t, rt)
	garbage := []byte{0, 0, 0, 3, 0xff, 0xfe, 0xfd}
	want := types.MSViewChange{Slot: 2, View: 1}
	if _, err := conn.Write(append(garbage, encodeFrame(want)...)); err != nil {
		t.Fatal(err)
	}
	sink.expect(t, want)
}

// countingConn counts Write calls on an outbound connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestOneWritePerWakeUp: everything queued for a peer when its writer wakes
// goes out in a single Write (after the hello that opens the connection).
func TestOneWritePerWakeUp(t *testing.T) {
	sinkRT, sink := newSink(t)
	rt, err := New(&idleMachine{id: 0}, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var writes atomic.Int64
	rt.dial = func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		return countingConn{Conn: c, writes: &writes}, err
	}
	rt.SetPeers(map[types.NodeID]string{9: sinkRT.Addr()})
	// Queue before the writer exists, so that one wake-up finds all of it.
	e := &env{r: rt}
	const frames = 5
	for i := 1; i <= frames; i++ {
		e.Send(9, types.MSViewChange{Slot: types.Slot(i), View: 1})
	}
	rt.Run()
	for i := 1; i <= frames; i++ {
		sink.expect(t, types.MSViewChange{Slot: types.Slot(i), View: 1})
	}
	if got := writes.Load(); got != 2 {
		t.Errorf("%d queued frames took %d writes, want 2 (the hello, then one for all of them)", frames, got)
	}
}

// TestBroadcastEncodesOnce: a broadcast builds one frame and every link
// queues that same frame. The CI perf job runs this by name.
func TestBroadcastEncodesOnce(t *testing.T) {
	rt, err := New(&idleMachine{id: 0}, Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.SetPeers(map[types.NodeID]string{0: rt.Addr(), 1: "127.0.0.1:1", 2: "127.0.0.1:2", 3: "127.0.0.1:3"})
	if len(rt.links) != 3 {
		t.Fatalf("%d outbound links, want 3 (self is served locally)", len(rt.links))
	}
	e := &env{r: rt}
	var msg types.Message = types.MSVote{Slot: 3, View: 0, Block: types.Block{Slot: 3}.ID()}
	e.Broadcast(msg)
	var first []byte
	for i, p := range rt.links {
		frame := <-p.queue
		if i == 0 {
			first = frame
		} else if &frame[0] != &first[0] {
			t.Errorf("link %d queued a frame of its own; a broadcast shares one", p.id)
		}
	}
	if got, want := first[frameHeader:], types.Encode(msg); string(got) != string(want) || int(binary.BigEndian.Uint32(first)) != len(want) {
		t.Errorf("broadcast frame is % x, want length prefix + % x", first, want)
	}
	allocs := testing.AllocsPerRun(200, func() {
		e.Broadcast(msg)
		for _, p := range rt.links {
			<-p.queue
		}
		e.self = e.self[:0]
	})
	if allocs > 1 {
		t.Errorf("a broadcast to 3 peers allocates %.1f times, want at most 1 (the shared frame)", allocs)
	}
}

// frameSeeds are messages of every multishot kind plus the single-shot
// proposal, for FuzzReadFrame's corpus and its round trip.
func frameSeeds() []types.Message {
	block := types.Block{Slot: 3, Parent: types.BlockID{1, 2}, Payload: []byte("payload"), Txs: [][]byte{[]byte("tx-a"), {}}}
	ref := types.VoteRef{Valid: true, View: 2, Val: "v"}
	return []types.Message{
		types.MSPropose{View: 1, Block: block},
		types.MSVote{Slot: 3, View: 1, Block: block.ID()},
		types.MSViewChange{Slot: 4, View: 2},
		types.MSSuggest{Slot: 4, View: 2, Vote2: ref, Vote3: ref},
		types.MSProof{Slot: 4, View: 2, Vote1: ref, Vote4: ref},
		types.MSFinal{Block: block},
		types.Proposal{View: 0, Val: "val-0"},
	}
}

// FuzzReadFrame feeds readFrame what a peer's socket could hand it. It must
// never panic, never return more than maxFrame bytes or more than the header
// announced, and read an encodeFrame frame back as exactly its message's
// encoding, whatever bytes follow it on the stream.
func FuzzReadFrame(f *testing.F) {
	seeds := frameSeeds()
	for i, m := range seeds {
		frame := encodeFrame(m)
		f.Add(frame, uint8(i))
		f.Add(frame[:len(frame)/2], uint8(i))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0}, uint8(0))
	f.Add([]byte{0, 0x10, 0, 1}, uint8(0)) // one byte over maxFrame
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		// A reused buffer of any capacity, as the read loop keeps one.
		got, err := readFrame(bytes.NewReader(data), make([]byte, int(pick)))
		if err == nil {
			size := binary.BigEndian.Uint32(data)
			if len(got) > maxFrame || uint32(len(got)) != size || !bytes.Equal(got, data[frameHeader:frameHeader+len(got)]) {
				t.Fatalf("read %d bytes from a frame announcing %d (limit %d)", len(got), size, maxFrame)
			}
		}
		m := seeds[int(pick)%len(seeds)]
		stream := append(encodeFrame(m), data...)
		got, err = readFrame(bytes.NewReader(stream), nil)
		if err != nil {
			t.Fatalf("reading an encodeFrame frame of %T: %v", m, err)
		}
		if want := types.Encode(m); !bytes.Equal(got, want) {
			t.Fatalf("read %x back from a %T frame, want %x", got, m, want)
		}
	})
}

// helloSink records every delivery with its sender.
type helloSink struct {
	mu   sync.Mutex
	from []types.NodeID
	got  []types.Message
}

func (m *helloSink) ID() types.NodeID              { return 9 }
func (m *helloSink) Start(types.Env)               {}
func (m *helloSink) Tick(types.Env, types.TimerID) {}
func (m *helloSink) Deliver(_ types.Env, from types.NodeID, msg types.Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.from = append(m.from, from)
	m.got = append(m.got, msg)
}

// parseHello is what a connection carrying data should deliver, worked out
// without the read loop: the hello's sender, the decodable messages of the
// well-formed frames before the first malformed one (a length above
// maxFrame), and whether there is one. A short hello or a cut-off last
// frame is not malformed: the stream may still go on.
func parseHello(data []byte) (from types.NodeID, msgs []types.Message, malformed bool) {
	if len(data) < 8 {
		return 0, nil, false
	}
	from, data = types.NodeID(binary.BigEndian.Uint64(data)), data[8:]
	for len(data) >= frameHeader {
		size := binary.BigEndian.Uint32(data)
		if size > maxFrame {
			return from, msgs, true
		}
		if uint32(len(data)-frameHeader) < size {
			break
		}
		if m, err := types.Decode(data[frameHeader : frameHeader+size]); err == nil {
			msgs = append(msgs, m)
		}
		data = data[frameHeader+size:]
	}
	return from, msgs, false
}

// FuzzHello writes arbitrary bytes into a runtime's accepted connection, as
// a hello and the stream after it. The runtime must not panic; it closes the
// connection at the first malformed frame (or, on a stream that only stops,
// at its end) and delivers nothing after that frame; every message it
// delivers is the hello's sender's, in stream order; and no goroutine of it
// outlives Close.
func FuzzHello(f *testing.F) {
	hello := func(id uint64, frames ...types.Message) []byte {
		b := binary.BigEndian.AppendUint64(nil, id)
		for _, m := range frames {
			b = append(b, encodeFrame(m)...)
		}
		return b
	}
	seeds := frameSeeds()
	f.Add(hello(1, seeds[1], seeds[0]))             // a valid hello plus frames
	f.Add([]byte{0, 0, 0, 1})                       // a short hello
	f.Add(hello(1_000_000, seeds[2]))               // an ID outside any membership
	f.Add(append(hello(2), 0, 0x10, 0, 1, 0, 0, 0)) // an oversize frame, then bytes
	f.Add(append(hello(3, seeds[3]), 0, 0, 0, 2, 0xff, 0xfe))
	f.Fuzz(func(t *testing.T, data []byte) {
		before := runtime.NumGoroutine()
		sink := &helloSink{}
		rt, err := New(sink, Config{ListenAddr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		rt.Run()
		conn, err := net.Dial("tcp", rt.Addr())
		if err != nil {
			rt.Close()
			t.Fatal(err)
		}
		from, want, malformed := parseHello(data)
		conn.Write(data) // the runtime may close mid-write after a malformed frame
		if !malformed {
			conn.(*net.TCPConn).CloseWrite() // the stream ends here: the runtime reads EOF
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = io.Copy(io.Discard, conn)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Errorf("the runtime kept the connection open (malformed frame: %v)", malformed)
		}
		conn.Close()
		// The read loop queued every delivery before it closed the
		// connection, so the event loop has run them all once it runs this.
		rt.Do(func() {})
		rt.Close()
		sink.mu.Lock()
		got, senders := sink.got, sink.from
		sink.mu.Unlock()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("delivered %d messages %v, want the %d before the first malformed frame %v", len(got), got, len(want), want)
		}
		for _, s := range senders {
			if s != from {
				t.Fatalf("a message was delivered from %d on a connection whose hello said %d", s, from)
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines outlive Close, %d before New", runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
