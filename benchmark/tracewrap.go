package main

import (
	"time"

	"tetrabft/internal/multishot"
	"tetrabft/internal/types"
)

// The traced run's timing wrappers. Each sits on a public interface between
// two layers — types.Machine (transport → multishot), types.Env (multishot →
// transport), multishot.Persister (multishot → wal) and Config.Batch
// (multishot → blockchain) — and records a span around the call. All four
// run on the replica's event-loop goroutine, so they share its track and a
// persist, drain or send made while a deliver is open becomes that
// deliver's child: the deliver's self time is multishot's own work.

// tracedMachine wraps the hosted node.
type tracedMachine struct {
	inner types.Machine
	c     *cluster
	t     *track
	env   tracedEnv
}

func (m *tracedMachine) ID() types.NodeID { return m.inner.ID() }

func (m *tracedMachine) Start(env types.Env) {
	m.env.inner = env
	i := m.t.begin("multishot.start", "multishot", 0)
	m.inner.Start(&m.env)
	m.t.end(i)
}

func (m *tracedMachine) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	m.env.inner = env
	i := m.t.begin("multishot.deliver", "multishot", msgSlot(msg))
	m.inner.Deliver(&m.env, from, msg)
	m.t.end(i)
}

func (m *tracedMachine) Tick(env types.Env, id types.TimerID) {
	m.env.inner = env
	i := m.t.begin("multishot.tick", "multishot", int64(id))
	m.inner.Tick(&m.env, id)
	m.t.end(i)
}

// msgSlot is the slot a multishot message is about (0 when it has none).
func msgSlot(msg types.Message) int64 {
	switch m := msg.(type) {
	case types.MSPropose:
		return int64(m.Block.Slot)
	case types.MSVote:
		return int64(m.Slot)
	case types.MSViewChange:
		return int64(m.Slot)
	case types.MSSuggest:
		return int64(m.Slot)
	case types.MSProof:
		return int64(m.Slot)
	case types.MSFinal:
		return int64(m.Block.Slot)
	}
	return 0
}

// tracedEnv wraps the runtime's Env: Send and Broadcast cover the wire
// encoding and the hand-off to the peer writers.
type tracedEnv struct {
	inner types.Env
	m     *tracedMachine
}

func (e *tracedEnv) Now() types.Time { return e.inner.Now() }

func (e *tracedEnv) Send(to types.NodeID, msg types.Message) {
	i := e.m.t.begin("transport.send", "transport", msgSlot(msg))
	e.inner.Send(to, msg)
	e.m.t.end(i)
}

func (e *tracedEnv) Broadcast(msg types.Message) {
	i := e.m.t.begin("transport.broadcast", "transport", msgSlot(msg))
	e.inner.Broadcast(msg)
	e.m.t.end(i)
}

func (e *tracedEnv) SetTimer(id types.TimerID, d types.Duration) { e.inner.SetTimer(id, d) }
func (e *tracedEnv) Decide(slot types.Slot, val types.Value)     { e.inner.Decide(slot, val) }

// tracedPersister wraps the WAL.
type tracedPersister struct {
	inner multishot.Persister
	m     *tracedMachine
}

func (p tracedPersister) Persist(state multishot.PersistentState) error {
	i := p.m.t.begin("wal.persist", "wal", int64(state.Finalized))
	err := p.inner.Persist(state)
	p.m.t.end(i)
	if err != nil {
		p.m.c.mu.Lock()
		p.m.c.persistErrs++
		p.m.c.mu.Unlock()
	}
	return err
}

// wrapBatch wraps the mempool's batch source and notes which transactions
// each non-empty drain handed to which slot.
func (m *tracedMachine) wrapBatch(inner func(types.Slot, types.Time) [][]byte) func(types.Slot, types.Time) [][]byte {
	return func(slot types.Slot, now types.Time) [][]byte {
		i := m.t.begin("blockchain.drain", "blockchain", int64(slot))
		out := inner(slot, now)
		m.t.end(i)
		if len(out) > 0 {
			rec := drainRec{slot: slot, at: time.Since(m.c.epoch), seqs: make([]uint64, 0, len(out))}
			for _, tx := range out {
				if seq, ok := txSeq(tx); ok {
					rec.seqs = append(rec.seqs, seq)
				}
			}
			m.c.mu.Lock()
			m.c.drains = append(m.c.drains, rec)
			m.c.mu.Unlock()
		}
		return out
	}
}

// loopProbe is the traced run's sampler: every 10 ms it asks each live
// replica's event loop to run an empty closure (Runtime.Do) and times how
// long the call waited behind the handlers already queued, and it reads the
// shared pool's depth.
type loopProbe struct {
	waits      []time.Duration
	backlogMax int
	stop       chan struct{}
	done       chan struct{}
}

func startLoopProbe(c *cluster) *loopProbe {
	p := &loopProbe{stop: make(chan struct{}), done: make(chan struct{})}
	t := c.tracer.newTrack("eventloop-probe")
	go func() {
		defer close(p.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			if n := c.pool.Len(); n > p.backlogMax {
				p.backlogMax = n
			}
			for _, rep := range c.reps {
				rt := rep.runtime()
				t0 := time.Since(t.epoch)
				var ranAt time.Duration
				if !rt.Do(func() { ranAt = time.Since(t.epoch) }) {
					continue // killed or closed
				}
				t.add("transport.eventloop_wait", "transport.wait", t0, ranAt, int64(rep.id))
				p.waits = append(p.waits, ranAt-t0)
			}
		}
	}()
	return p
}

func (p *loopProbe) halt() {
	close(p.stop)
	<-p.done
}
