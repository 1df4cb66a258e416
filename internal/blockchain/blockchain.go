// Package blockchain provides the ledger substrate around multi-shot
// TetraBFT: transactions, a mempool that assembles block payloads, a
// finalized-chain store with linkage validation, and a replicated
// key-value state machine driven by finalized blocks. These are the pieces
// the paper's blockchain framing (Section 2, Definition 2) assumes around
// the consensus core.
package blockchain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"tetrabft/internal/types"
)

// ErrBadPayload reports a malformed block payload.
var ErrBadPayload = errors.New("blockchain: malformed payload")

// Tx is an opaque transaction.
type Tx []byte

// EncodePayload packs transactions into a block payload: a count followed
// by length-prefixed transactions.
func EncodePayload(txs []Tx) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(txs)))
	for _, tx := range txs {
		buf = binary.AppendUvarint(buf, uint64(len(tx)))
		buf = append(buf, tx...)
	}
	return buf
}

// DecodePayload unpacks a payload produced by EncodePayload.
func DecodePayload(p []byte) ([]Tx, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, ErrBadPayload
	}
	p = p[n:]
	if count > uint64(len(p))+1 {
		return nil, fmt.Errorf("%w: impossible count %d", ErrBadPayload, count)
	}
	txs := make([]Tx, 0, count)
	for i := uint64(0); i < count; i++ {
		size, n := binary.Uvarint(p)
		if n <= 0 || size > uint64(len(p[n:])) {
			return nil, ErrBadPayload
		}
		p = p[n:]
		txs = append(txs, Tx(p[:size]))
		p = p[size:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(p))
	}
	return txs, nil
}

// Mempool is a bounded FIFO of pending transactions. It is safe for
// concurrent use (the TCP runtime submits from client goroutines while the
// consensus loop drains).
type Mempool struct {
	mu sync.Mutex
	// queue[head:] are the pending transactions; queue[:head] are drained
	// slots, already cleared, waiting for the next compaction.
	queue []Tx
	head  int
	limit int
}

// NewMempool creates a mempool holding at most limit transactions
// (limit <= 0 means 4096).
func NewMempool(limit int) *Mempool {
	if limit <= 0 {
		limit = 4096
	}
	return &Mempool{limit: limit}
}

// Submit enqueues a transaction; it reports false when the pool is full.
func (m *Mempool) Submit(tx Tx) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue)-m.head >= m.limit {
		return false
	}
	cp := make(Tx, len(tx))
	copy(cp, tx)
	m.queue = append(m.queue, cp)
	return true
}

// Len returns the number of pending transactions.
func (m *Mempool) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) - m.head
}

// Drain removes and returns up to max transactions (max <= 0 means all).
// The cost is proportional to the batch, not to the backlog: the head index
// advances, and the pending tail is moved to the front only once the
// drained part is more than half the slice (amortised O(1) per
// transaction).
func (m *Mempool) Drain(max int) []Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	pending := m.queue[m.head:]
	if max <= 0 || max > len(pending) {
		max = len(pending)
	}
	out := make([]Tx, max)
	copy(out, pending)
	clear(pending[:max]) // drained payloads must not stay reachable from the queue
	m.head += max
	if m.head > len(m.queue)/2 {
		n := copy(m.queue, m.queue[m.head:])
		clear(m.queue[n:])
		m.queue = m.queue[:n]
		m.head = 0
	}
	return out
}

// PayloadSource adapts the mempool to multishot.Config.Payload: each
// proposed block carries up to txPerBlock drained transactions.
func (m *Mempool) PayloadSource(txPerBlock int) func(types.Slot) []byte {
	return func(types.Slot) []byte {
		return EncodePayload(m.Drain(txPerBlock))
	}
}

// TimedTx is a transaction tagged with its arrival time.
type TimedTx struct {
	At types.Time
	Tx Tx
}

// TimedMempool is an arrival-gated FIFO: each transaction carries the time
// it entered the system, and a drain at time t only sees transactions that
// had arrived by t. It backs offered-load workloads on the deterministic
// simulator, where the whole transaction stream is known up front but must
// not become proposable before its arrival instant.
type TimedMempool struct {
	mu    sync.Mutex
	queue []TimedTx
	limit int
}

// NewTimedMempool creates a timed mempool holding at most limit pending
// transactions (limit <= 0 means 65536 — offered-load streams are bursty).
// A caller that sizes the pool gets its queue reserved up front, up to
// maxReserve entries, so a backlog admitted at once is never re-copied; the
// default pool grows on demand, since open-loop streams rarely fill it.
func NewTimedMempool(limit int) *TimedMempool {
	if limit <= 0 {
		return &TimedMempool{limit: 65536}
	}
	return &TimedMempool{limit: limit, queue: make([]TimedTx, 0, min(limit, maxReserve))}
}

// maxReserve caps the queue a sized pool reserves: 2^18 entries of 32 bytes,
// 8 MiB.
const maxReserve = 1 << 18

// Submit enqueues a transaction arriving at the given time; it reports
// false when the pool is full. Arrivals must be submitted in time order
// (the FIFO gate checks only the head).
func (m *TimedMempool) Submit(at types.Time, tx Tx) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue) >= m.limit {
		return false
	}
	cp := make(Tx, len(tx))
	copy(cp, tx)
	m.queue = append(m.queue, TimedTx{At: at, Tx: cp})
	return true
}

// Len returns the number of pending transactions, arrived or not.
func (m *TimedMempool) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// DrainReady removes and returns up to max transactions that had arrived
// by now (max <= 0 means all ready ones).
func (m *TimedMempool) DrainReady(now types.Time, max int) []Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for n < len(m.queue) && m.queue[n].At <= now && (max <= 0 || n < max) {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]Tx, n)
	for i := 0; i < n; i++ {
		out[i] = m.queue[i].Tx
	}
	m.queue = append(m.queue[:0:0], m.queue[n:]...)
	return out
}

// BatchSource adapts the timed mempool to multishot.Config.Batch: each
// proposed block carries up to txPerBlock transactions that have arrived by
// proposal time, as its ordered batch.
func (m *TimedMempool) BatchSource(txPerBlock int) func(types.Slot, types.Time) [][]byte {
	return func(_ types.Slot, now types.Time) [][]byte {
		txs := m.DrainReady(now, txPerBlock)
		if len(txs) == 0 {
			return nil
		}
		out := make([][]byte, len(txs))
		for i, tx := range txs {
			out[i] = tx
		}
		return out
	}
}

// Store validates and records the finalized chain.
type Store struct {
	mu    sync.Mutex
	chain []types.Block
	byID  map[types.BlockID]int
}

// NewStore creates an empty chain store.
func NewStore() *Store {
	return &Store{byID: make(map[types.BlockID]int)}
}

// Append adds the next finalized block, enforcing slot order and hash
// linkage (Definition 2's consistency is checked structurally here).
func (s *Store) Append(b types.Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	wantSlot := types.Slot(len(s.chain) + 1)
	if b.Slot != wantSlot {
		return fmt.Errorf("blockchain: append slot %d, want %d", b.Slot, wantSlot)
	}
	wantParent := types.ZeroBlockID
	if len(s.chain) > 0 {
		wantParent = s.chain[len(s.chain)-1].ID()
	}
	if b.Parent != wantParent {
		return fmt.Errorf("blockchain: block %d does not extend the chain head", b.Slot)
	}
	s.chain = append(s.chain, b)
	s.byID[b.ID()] = len(s.chain) - 1
	return nil
}

// Height returns the number of finalized blocks.
func (s *Store) Height() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.chain)
}

// Chain returns a copy of the finalized chain.
func (s *Store) Chain() []types.Block {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]types.Block, len(s.chain))
	copy(out, s.chain)
	return out
}

// Get returns the block at a slot (1-based).
func (s *Store) Get(slot types.Slot) (types.Block, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot < 1 || slot > types.Slot(len(s.chain)) {
		return types.Block{}, false
	}
	return s.chain[slot-1], true
}

// KV op codes inside transactions.
const (
	opSet byte = 1
	opDel byte = 2
)

// SetTx builds a "set key = value" transaction.
func SetTx(key, value string) Tx {
	buf := []byte{opSet}
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(value)))
	return append(buf, value...)
}

// DelTx builds a "delete key" transaction.
func DelTx(key string) Tx {
	buf := []byte{opDel}
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	return append(buf, key...)
}

// KV is the replicated key-value state machine: applying the same finalized
// chain on every node yields the same state (Definition 2's consistency
// surfaced at the application layer).
type KV struct {
	mu   sync.Mutex
	data map[string]string
}

// NewKV creates an empty store.
func NewKV() *KV {
	return &KV{data: make(map[string]string)}
}

// ApplyBlock executes every transaction in a finalized block. Malformed
// transactions are skipped (a Byzantine proposer must not wedge the state
// machine), and the count of applied transactions is returned.
func (kv *KV) ApplyBlock(b types.Block) int {
	txs, err := DecodePayload(b.Payload)
	if err != nil {
		return 0
	}
	applied := 0
	for _, tx := range txs {
		if kv.apply(tx) {
			applied++
		}
	}
	return applied
}

func (kv *KV) apply(tx Tx) bool {
	if len(tx) == 0 {
		return false
	}
	op, rest := tx[0], tx[1:]
	keyLen, n := binary.Uvarint(rest)
	if n <= 0 || keyLen > uint64(len(rest[n:])) {
		return false
	}
	rest = rest[n:]
	key := string(rest[:keyLen])
	rest = rest[keyLen:]
	kv.mu.Lock()
	defer kv.mu.Unlock()
	switch op {
	case opSet:
		valLen, n := binary.Uvarint(rest)
		if n <= 0 || valLen != uint64(len(rest[n:])) {
			return false
		}
		kv.data[key] = string(rest[n:])
		return true
	case opDel:
		if len(rest) != 0 {
			return false
		}
		delete(kv.data, key)
		return true
	default:
		return false
	}
}

// Get reads a key.
func (kv *KV) Get(key string) (string, bool) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	v, ok := kv.data[key]
	return v, ok
}

// Len returns the number of keys.
func (kv *KV) Len() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return len(kv.data)
}

// Snapshot returns a copy of the state.
func (kv *KV) Snapshot() map[string]string {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	out := make(map[string]string, len(kv.data))
	for k, v := range kv.data {
		out[k] = v
	}
	return out
}
