package blockchain

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"tetrabft/internal/types"
)

func TestPayloadRoundTrip(t *testing.T) {
	cases := [][]Tx{
		nil,
		{},
		{Tx("a")},
		{Tx("a"), Tx(""), Tx("longer transaction body")},
	}
	for _, txs := range cases {
		got, err := DecodePayload(EncodePayload(txs))
		if err != nil {
			t.Fatalf("DecodePayload(%v): %v", txs, err)
		}
		if len(got) != len(txs) {
			t.Fatalf("got %d txs, want %d", len(got), len(txs))
		}
		for i := range txs {
			if string(got[i]) != string(txs[i]) {
				t.Errorf("tx %d: got %q want %q", i, got[i], txs[i])
			}
		}
	}
}

func TestQuickPayloadRoundTrip(t *testing.T) {
	f := func(raw [][]byte) bool {
		txs := make([]Tx, len(raw))
		for i, r := range raw {
			txs[i] = Tx(r)
		}
		got, err := DecodePayload(EncodePayload(txs))
		if err != nil {
			return false
		}
		if len(got) != len(txs) {
			return false
		}
		for i := range txs {
			if string(got[i]) != string(txs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodePayloadRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		{},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, // absurd count
		append(EncodePayload([]Tx{Tx("a")}), 0x00),                   // trailing
		{2, 1, 'a'}, // count 2 but one tx
	}
	for _, p := range bad {
		if _, err := DecodePayload(p); err == nil {
			t.Errorf("DecodePayload(%v) accepted", p)
		}
	}
}

func TestQuickDecodePayloadNeverPanics(t *testing.T) {
	f := func(p []byte) bool {
		_, _ = DecodePayload(p)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzDecodePayload faces DecodePayload with the block payloads a peer may
// propose. It never panics, and whatever it accepts survives a round trip:
// the decoded transactions re-encode into a payload that decodes to the same
// transactions (the input itself need not be canonical: a varint may carry
// redundant continuation bytes).
func FuzzDecodePayload(f *testing.F) {
	for _, txs := range [][]Tx{nil, {Tx("")}, {Tx("a"), Tx("otx-00000001"), Tx("set|k|v")}} {
		p := EncodePayload(txs)
		f.Add(p)
		f.Add(p[:len(p)/2])
	}
	f.Add([]byte{0x80, 0x00})
	f.Fuzz(func(t *testing.T, p []byte) {
		txs, err := DecodePayload(p)
		if err != nil {
			return
		}
		again, err := DecodePayload(EncodePayload(txs))
		if err != nil {
			t.Fatalf("DecodePayload(EncodePayload(%q)): %v", txs, err)
		}
		if len(again) != len(txs) {
			t.Fatalf("round trip of %q gave %d transactions, want %d", txs, len(again), len(txs))
		}
		for i := range txs {
			if string(again[i]) != string(txs[i]) {
				t.Fatalf("round trip tx %d: got %q, want %q", i, again[i], txs[i])
			}
		}
	})
}

func TestMempoolFIFOAndBounds(t *testing.T) {
	m := NewMempool(3)
	for i, tx := range []string{"a", "b", "c"} {
		if !m.Submit(Tx(tx)) {
			t.Fatalf("submit %d rejected", i)
		}
	}
	if m.Submit(Tx("overflow")) {
		t.Error("submit beyond the limit accepted")
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	got := m.Drain(2)
	if len(got) != 2 || string(got[0]) != "a" || string(got[1]) != "b" {
		t.Fatalf("Drain(2) = %v", got)
	}
	if rest := m.Drain(0); len(rest) != 1 || string(rest[0]) != "c" {
		t.Fatalf("Drain(0) = %v", rest)
	}
}

// TestMempoolHeadIndex drives the head-indexed queue through many
// compactions against a plain-slice model: FIFO order, Len and the limit
// count pending transactions only, and a drain leaves no drained payload
// reachable from the queue.
func TestMempoolHeadIndex(t *testing.T) {
	const limit = 50
	m := NewMempool(limit)
	var model []string
	next := 0
	for step := 0; step < 2000; step++ {
		for i := 0; i < step%7; i++ {
			tx := fmt.Sprintf("tx-%d", next)
			if ok := m.Submit(Tx(tx)); ok != (len(model) < limit) {
				t.Fatalf("step %d: Submit = %v with %d pending (limit %d)", step, ok, len(model), limit)
			} else if ok {
				model = append(model, tx)
				next++
			}
		}
		max := step%5 - 1 // -1 and 0 drain everything
		want := len(model)
		if max > 0 && max < want {
			want = max
		}
		got := m.Drain(max)
		if len(got) != want {
			t.Fatalf("step %d: Drain(%d) returned %d txs, want %d", step, max, len(got), want)
		}
		for i, tx := range got {
			if string(tx) != model[i] {
				t.Fatalf("step %d: tx %d = %q, want %q", step, i, tx, model[i])
			}
		}
		model = model[want:]
		if m.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(model))
		}
		for i, tx := range m.queue[:cap(m.queue)] {
			if pending := i >= m.head && i < len(m.queue); (tx != nil) != pending {
				t.Fatalf("step %d: queue slot %d (head %d, len %d) set = %v", step, i, m.head, len(m.queue), tx != nil)
			}
		}
	}
}

// TestMempoolDrainCostBound: a bounded drain allocates its result and
// nothing proportional to the backlog.
func TestMempoolDrainCostBound(t *testing.T) {
	const backlog, runs, budget = 1 << 17, 1000, 8*24 + 64
	m := NewMempool(backlog)
	for i := 0; i < backlog; i++ {
		m.Submit(Tx("tx"))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		m.Drain(8)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Fatalf("%d bytes per Drain(8) at a %d backlog, want <= %d", per, backlog, budget)
	}
}

func TestMempoolCopiesSubmittedTx(t *testing.T) {
	m := NewMempool(0)
	raw := []byte("mutate-me")
	m.Submit(raw)
	raw[0] = 'X'
	got := m.Drain(0)
	if string(got[0]) != "mutate-me" {
		t.Error("mempool aliased the caller's buffer")
	}
}

func TestPayloadSource(t *testing.T) {
	m := NewMempool(0)
	m.Submit(Tx("t1"))
	m.Submit(Tx("t2"))
	m.Submit(Tx("t3"))
	src := m.PayloadSource(2)
	txs, err := DecodePayload(src(1))
	if err != nil || len(txs) != 2 {
		t.Fatalf("first payload: %v txs, err %v", txs, err)
	}
	txs, err = DecodePayload(src(2))
	if err != nil || len(txs) != 1 {
		t.Fatalf("second payload: %v txs, err %v", txs, err)
	}
}

func TestStoreLinkage(t *testing.T) {
	s := NewStore()
	b1 := types.Block{Slot: 1, Parent: types.ZeroBlockID, Payload: EncodePayload(nil)}
	b2 := types.Block{Slot: 2, Parent: b1.ID(), Payload: EncodePayload(nil)}
	bad := types.Block{Slot: 2, Parent: types.ZeroBlockID}

	if err := s.Append(b2); err == nil {
		t.Error("appended slot 2 to an empty chain")
	}
	if err := s.Append(b1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(bad); err == nil {
		t.Error("appended a block that does not extend the head")
	}
	if err := s.Append(b2); err != nil {
		t.Fatal(err)
	}
	if s.Height() != 2 {
		t.Errorf("Height = %d, want 2", s.Height())
	}
	if got, ok := s.Get(1); !ok || got.ID() != b1.ID() {
		t.Error("Get(1) mismatch")
	}
	if _, ok := s.Get(3); ok {
		t.Error("Get(3) on a 2-block chain succeeded")
	}
	chain := s.Chain()
	if len(chain) != 2 || chain[1].ID() != b2.ID() {
		t.Error("Chain() mismatch")
	}
}

func TestKVApply(t *testing.T) {
	kv := NewKV()
	payload := EncodePayload([]Tx{
		SetTx("alice", "10"),
		SetTx("bob", "20"),
		SetTx("alice", "15"),
		DelTx("bob"),
	})
	applied := kv.ApplyBlock(types.Block{Slot: 1, Payload: payload})
	if applied != 4 {
		t.Fatalf("applied %d txs, want 4", applied)
	}
	if v, ok := kv.Get("alice"); !ok || v != "15" {
		t.Errorf("alice = %q, %v", v, ok)
	}
	if _, ok := kv.Get("bob"); ok {
		t.Error("bob survived deletion")
	}
	if kv.Len() != 1 {
		t.Errorf("Len = %d, want 1", kv.Len())
	}
}

func TestKVSkipsMalformedTxs(t *testing.T) {
	kv := NewKV()
	payload := EncodePayload([]Tx{
		Tx{},               // empty
		Tx{9, 1, 'k'},      // unknown op
		SetTx("good", "1"), // valid
		Tx{1, 200, 'x'},    // absurd key length
	})
	applied := kv.ApplyBlock(types.Block{Slot: 1, Payload: payload})
	if applied != 1 {
		t.Fatalf("applied %d txs, want 1", applied)
	}
	if _, ok := kv.Get("good"); !ok {
		t.Error("valid tx among garbage not applied")
	}
}

func TestKVDeterminism(t *testing.T) {
	blocks := []types.Block{
		{Slot: 1, Payload: EncodePayload([]Tx{SetTx("a", "1"), SetTx("b", "2")})},
		{Slot: 2, Payload: EncodePayload([]Tx{DelTx("a"), SetTx("c", "3")})},
	}
	kv1, kv2 := NewKV(), NewKV()
	for _, b := range blocks {
		kv1.ApplyBlock(b)
		kv2.ApplyBlock(b)
	}
	if !reflect.DeepEqual(kv1.Snapshot(), kv2.Snapshot()) {
		t.Error("same chain produced different states")
	}
}

func TestTimedMempoolGatesOnArrival(t *testing.T) {
	m := NewTimedMempool(0)
	for i, at := range []types.Time{2, 5, 5, 9} {
		if !m.Submit(at, Tx{byte('a' + i)}) {
			t.Fatalf("submit %d rejected", i)
		}
	}
	if got := m.DrainReady(1, 0); got != nil {
		t.Fatalf("drained %d txs before any arrived", len(got))
	}
	if got := m.DrainReady(5, 0); len(got) != 3 {
		t.Fatalf("drained %d txs by t=5, want 3", len(got))
	} else if string(got[0]) != "a" || string(got[2]) != "c" {
		t.Fatalf("drain broke FIFO order: %q", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after drain, want 1", m.Len())
	}
	if got := m.DrainReady(100, 0); len(got) != 1 || string(got[0]) != "d" {
		t.Fatalf("final drain = %q", got)
	}
}

// TestTimedMempoolReservesSizedQueue: a pool sized for N admits N
// transactions without reallocating its queue (tcp-saturate's backlog is
// 200k), a pool sized past the reserve cap reserves the cap, and the default
// pool reserves nothing, so open-loop pools cost what they hold.
func TestTimedMempoolReservesSizedQueue(t *testing.T) {
	for _, n := range []int{1, 1000, 200_000} {
		m := NewTimedMempool(n)
		if cap(m.queue) < n {
			t.Fatalf("a pool sized for %d reserves %d entries", n, cap(m.queue))
		}
		base := &m.queue[:1][0]
		for i := 0; i < n; i++ {
			if !m.Submit(0, Tx("tx")) {
				t.Fatalf("submit %d of %d rejected", i, n)
			}
			if &m.queue[0] != base {
				t.Fatalf("a pool sized for %d reallocated its queue at submit %d", n, i)
			}
		}
	}
	if got := cap(NewTimedMempool(4 * maxReserve).queue); got != maxReserve {
		t.Errorf("a pool sized for %d reserves %d entries, want the cap %d", 4*maxReserve, got, maxReserve)
	}
	if got := cap(NewTimedMempool(0).queue); got != 0 {
		t.Errorf("the default pool reserves %d entries, want 0", got)
	}
}

func TestTimedMempoolRespectsCap(t *testing.T) {
	m := NewTimedMempool(2)
	if !m.Submit(1, Tx("a")) || !m.Submit(1, Tx("b")) {
		t.Fatal("submits under the cap rejected")
	}
	if m.Submit(1, Tx("c")) {
		t.Fatal("submit over the cap accepted")
	}
	got := m.DrainReady(1, 1)
	if len(got) != 1 || string(got[0]) != "a" {
		t.Fatalf("bounded drain = %q", got)
	}
	if !m.Submit(2, Tx("c")) {
		t.Fatal("submit after drain rejected")
	}
}

func TestTimedMempoolBatchSource(t *testing.T) {
	m := NewTimedMempool(0)
	for i := 0; i < 5; i++ {
		m.Submit(types.Time(i), Tx{byte('0' + i)})
	}
	src := m.BatchSource(2)
	if b := src(1, 0); len(b) != 1 || string(b[0]) != "0" {
		t.Fatalf("slot-1 batch = %q", b)
	}
	if b := src(2, 10); len(b) != 2 || string(b[0]) != "1" {
		t.Fatalf("slot-2 batch = %q", b)
	}
	if b := src(3, 10); len(b) != 2 {
		t.Fatalf("slot-3 batch has %d txs", len(b))
	}
	if b := src(4, 10); b != nil {
		t.Fatalf("empty pool produced batch %q (must be nil to keep blocks unbatched)", b)
	}
}
