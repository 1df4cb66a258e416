package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/multishot"
	"tetrabft/internal/quorum"
	"tetrabft/internal/shard"
	"tetrabft/internal/sim"
	"tetrabft/internal/transport"
	"tetrabft/internal/types"
	"tetrabft/internal/wal"
	"tetrabft/internal/workload"
)

// The isolated probes time single public functions of each layer with
// nothing else running, so a traced run's per-call costs can be compared
// with what the same call costs in isolation. They run in every traced
// invocation and take about two seconds together.

// probeBudget is how long one probe repeats its operation.
const probeBudget = 40 * time.Millisecond

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// perOp repeats fn for probeBudget and returns the mean time and heap
// allocations per call.
func perOp(fn func()) (ns, allocs float64) {
	fn() // warm
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := 0
	start := time.Now()
	for time.Since(start) < probeBudget {
		for i := 0; i < 16; i++ {
			fn()
		}
		n += 16
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// timedOnly is perOp for operations that need untimed preparation between
// calls: op is timed, reset is not.
func timedOnly(op, reset func()) (ns float64) {
	var busy time.Duration
	n := 0
	for start := time.Now(); time.Since(start) < 2*probeBudget && busy < probeBudget; n++ {
		t0 := time.Now()
		op()
		busy += time.Since(t0)
		reset()
	}
	return float64(busy) / float64(n)
}

func probeTxs(n int) [][]byte {
	txs := make([][]byte, n)
	for i := range txs {
		txs[i] = makeTx(uint64(i), []byte("isolated-probe-filler...."))
	}
	return txs
}

// runProbes returns every probe metric by name.
func runProbes(seed int64) (map[string]float64, error) {
	out := map[string]float64{}

	// types: the 128-transaction proposal a saturated leader broadcasts, and
	// the vote every replica broadcasts per slot.
	parent := types.Block{Slot: 99, Payload: []byte("p")}.ID()
	block := types.Block{Slot: 100, Parent: parent, Payload: []byte("payload-100-by-1"), Txs: probeTxs(128)}
	var prop types.Message = types.MSPropose{View: 0, Block: block}
	var vote types.Message = types.MSVote{Slot: 100, View: 0, Block: block.ID()}
	propBytes, voteBytes := types.Encode(prop), types.Encode(vote)
	out["types.encode_proposal_ns"], _ = perOp(func() { sink = types.Encode(prop) })
	out["types.decode_proposal_ns"], _ = perOp(func() { sink, _ = types.Decode(propBytes) })
	out["types.encode_vote_ns"], _ = perOp(func() { sink = types.Encode(vote) })
	out["types.decode_vote_ns"], _ = perOp(func() { sink, _ = types.Decode(voteBytes) })
	out["types.block_id_ns"], _ = perOp(func() { sink = block.ID() })

	// quorum: one vote tallied at n=16.
	bits := quorum.NewBits(16)
	i := 0
	out["quorum.bits_vote_ns"], _ = perOp(func() {
		if i%16 == 0 {
			bits.Clear()
		}
		bits.Add(i % 16)
		sink = bits.Count()
		i++
	})

	if err := probeReplay(out); err != nil {
		return nil, err
	}

	// blockchain: the shared pool's drain at three backlog depths, and the
	// gateway's read path (payload decode, KV apply).
	for _, p := range []struct {
		name           string
		backlog, batch int
	}{{"blockchain.drainready_us_backlog100", 100, 64}, {"blockchain.drainready_us_backlog50k", 50000, 128}} {
		pool := blockchain.NewTimedMempool(p.backlog + p.batch)
		txs := probeTxs(p.backlog + p.batch)
		for _, tx := range txs {
			pool.Submit(0, tx)
		}
		ns := timedOnly(
			func() { sink = pool.DrainReady(1, p.batch) },
			func() {
				for _, tx := range txs[:p.batch] {
					pool.Submit(0, tx)
				}
			})
		out[p.name] = ns / 1e3
	}
	mp := blockchain.NewMempool(4096 + 8)
	kvTxs := make([]blockchain.Tx, 8)
	for i := range kvTxs {
		kvTxs[i] = blockchain.SetTx(fmt.Sprintf("w-%06d", i), "0123456789abcdef")
	}
	for i := 0; i < 4096+8; i++ {
		mp.Submit(kvTxs[i%8])
	}
	out["blockchain.mempool_drain_us_backlog4k"] = timedOnly(
		func() { sink = mp.Drain(8) },
		func() {
			for _, tx := range kvTxs {
				mp.Submit(tx)
			}
		}) / 1e3
	payload := blockchain.EncodePayload(kvTxs)
	kv := blockchain.NewKV()
	kvBlock := types.Block{Slot: 1, Payload: payload}
	out["blockchain.kv_apply_block_ns"], _ = perOp(func() { sink = kv.ApplyBlock(kvBlock) })
	out["blockchain.decode_payload_ns"], _ = perOp(func() { sink, _ = blockchain.DecodePayload(payload) })

	if err := probeWAL(out); err != nil {
		return nil, err
	}
	if err := probeTransport(out); err != nil {
		return nil, err
	}
	if err := probeShard(out); err != nil {
		return nil, err
	}

	// workload: the seeded arrival schedule the simulator workload's set-up
	// generates.
	spec := workload.Spec{Arrival: workload.ArrivalSpec{Process: workload.ProcessPoisson, Rate: simRate}}
	const arrivals = 20000
	t0 := time.Now()
	sched, err := spec.Schedule(arrivals, seed)
	if err != nil {
		return nil, fmt.Errorf("workload probe: %w", err)
	}
	out["workload.schedule_ns_per_arrival"] = float64(time.Since(t0)) / float64(len(sched))
	return out, nil
}

type adversaryFunc func(from, to types.NodeID, msg types.Message, now types.Time) sim.Verdict

func (f adversaryFunc) Intercept(from, to types.NodeID, msg types.Message, now types.Time) sim.Verdict {
	return f(from, to, msg, now)
}

// replayEnv feeds a node's own broadcasts back to it and swallows the rest.
type replayEnv struct{ node *multishot.Node }

func (e *replayEnv) Now() types.Time                        { return 0 }
func (e *replayEnv) Send(types.NodeID, types.Message)       {}
func (e *replayEnv) Broadcast(m types.Message)              { e.node.Deliver(e, e.node.ID(), m) }
func (e *replayEnv) SetTimer(types.TimerID, types.Duration) {}
func (e *replayEnv) Decide(types.Slot, types.Value)         {}

// probeReplay records what 15 peers send node 0 during a good-case n=16
// pipeline on the simulator (through sim.Config.Adversary), then replays
// the stream into a fresh node: the steady-state deliver path alone.
func probeReplay(out map[string]float64) error {
	const nodes, maxSlot = 16, 43
	type recorded struct {
		from types.NodeID
		msg  types.Message
	}
	var msgs []recorded
	r := sim.New(sim.Config{Seed: 1, Adversary: adversaryFunc(func(from, to types.NodeID, msg types.Message, _ types.Time) sim.Verdict {
		if to == 0 && from != 0 {
			msgs = append(msgs, recorded{from, msg})
		}
		return sim.Verdict{}
	})})
	for i := 0; i < nodes; i++ {
		n, err := multishot.NewNode(multishot.Config{ID: types.NodeID(i), Nodes: nodes, Delta: 10, MaxSlot: maxSlot})
		if err != nil {
			return fmt.Errorf("replay probe: %w", err)
		}
		r.Add(n)
	}
	if err := r.Run(5000, nil); err != nil {
		return fmt.Errorf("replay probe: %w", err)
	}
	var replayErr error
	ns, allocs := perOp(func() {
		n, err := multishot.NewNode(multishot.Config{ID: 0, Nodes: nodes, Delta: 10, MaxSlot: maxSlot})
		if err != nil {
			replayErr = err
			return
		}
		env := &replayEnv{node: n}
		n.Start(env)
		for _, m := range msgs {
			n.Deliver(env, m.from, m.msg)
		}
		if n.FinalizedSlot() != maxSlot-3 {
			replayErr = fmt.Errorf("replay finalized %d slots, want %d", n.FinalizedSlot(), maxSlot-3)
		}
	})
	if replayErr != nil {
		return fmt.Errorf("replay probe: %w", replayErr)
	}
	out["multishot.replay_ns_per_msg"] = ns / float64(len(msgs))
	out["multishot.replay_allocs_per_msg"] = allocs / float64(len(msgs))
	return nil
}

// probeWAL times a persist (write + fsync + rename) and a load of a
// five-slot in-flight window on the real temp filesystem.
func probeWAL(out map[string]float64) error {
	dir, err := os.MkdirTemp("", "tetrabench-walprobe-")
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	defer os.RemoveAll(dir)
	store, err := wal.OpenMulti(dir)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	state := multishot.PersistentState{Finalized: 100}
	for s := types.Slot(101); s <= 105; s++ {
		state.Slots = append(state.Slots, multishot.SlotPersist{Slot: s})
	}
	var opErr error
	ns, _ := perOp(func() {
		if err := store.Persist(state); err != nil {
			opErr = err
		}
	})
	out["wal.persist_probe_us"] = ns / 1e3
	ns, _ = perOp(func() {
		if _, _, err := store.Load(); err != nil {
			opErr = err
		}
	})
	out["wal.load_us"] = ns / 1e3
	if opErr != nil {
		return fmt.Errorf("wal probe: %w", opErr)
	}
	return nil
}

// echoMachine is the transport probe's hosted machine. The pinger
// broadcasts a small message, waits for every peer's echo, and repeats; the
// others echo whatever they receive back to its sender.
type echoMachine struct {
	id     types.NodeID
	pinger bool
	peers  int
	rounds int

	got  int
	done chan struct{}
}

func (m *echoMachine) ID() types.NodeID { return m.id }

func (m *echoMachine) Start(env types.Env) {
	if m.pinger {
		env.Broadcast(types.MSVote{Slot: 1})
	}
}

func (m *echoMachine) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	if from == m.id {
		return // own broadcast
	}
	if !m.pinger {
		env.Send(from, msg)
		return
	}
	m.got++
	if m.got%m.peers != 0 {
		return
	}
	if m.got == m.peers*m.rounds {
		close(m.done)
		return
	}
	env.Broadcast(types.MSVote{Slot: types.Slot(m.got/m.peers + 1)})
}

func (m *echoMachine) Tick(types.Env, types.TimerID) {}

// echoRounds runs n loopback runtimes and returns the mean time and
// process-wide allocations per broadcast-and-collect round.
func echoRounds(n, rounds int) (nsPerRound, allocsPerRound float64, err error) {
	pinger := &echoMachine{id: 0, pinger: true, peers: n - 1, rounds: rounds, done: make(chan struct{})}
	machines := []*echoMachine{pinger}
	for i := 1; i < n; i++ {
		machines = append(machines, &echoMachine{id: types.NodeID(i)})
	}
	var rts []*transport.Runtime
	defer func() {
		for _, rt := range rts {
			rt.Close()
		}
	}()
	addrs := map[types.NodeID]string{}
	for _, m := range machines {
		rt, err := transport.New(m, transport.Config{ListenAddr: "127.0.0.1:0"})
		if err != nil {
			return 0, 0, fmt.Errorf("transport probe: %w", err)
		}
		rts = append(rts, rt)
		addrs[m.id] = rt.Addr()
	}
	for _, rt := range rts {
		rt.SetPeers(addrs)
	}
	// Echoers first, so the pinger's first broadcast finds listeners.
	for i := n - 1; i >= 1; i-- {
		rts[i].Run()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	rts[0].Run()
	select {
	case <-pinger.done:
	case <-time.After(10 * time.Second):
		return 0, 0, fmt.Errorf("transport probe: %d-runtime echo did not finish", n)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(rounds), float64(m1.Mallocs-m0.Mallocs) / float64(rounds), nil
}

func probeTransport(out map[string]float64) error {
	ns, allocs, err := echoRounds(2, 2000)
	if err != nil {
		return err
	}
	out["transport.roundtrip_us"], out["transport.roundtrip_allocs"] = ns/1e3, allocs
	ns, _, err = echoRounds(4, 1000)
	if err != nil {
		return err
	}
	out["transport.broadcast_n4_us"] = ns / 1e3
	return nil
}

// noopBackend answers the gateway at once, leaving only its HTTP cost.
type noopBackend struct{}

func (noopBackend) Submit(int, string, string) error        { return nil }
func (noopBackend) Query(int, string) (string, bool, error) { return "v", true, nil }
func (noopBackend) Status() shard.Status                    { return shard.Status{} }

func probeShard(out map[string]float64) error {
	gw, err := shard.NewGateway(2, noopBackend{})
	if err != nil {
		return fmt.Errorf("shard probe: %w", err)
	}
	defer gw.Close()
	c := newKVClient(gw.URL())
	defer c.close()
	var rtts []time.Duration
	var opErr error
	perOp(func() {
		t0 := time.Now()
		if err := c.submit("probe-key", "probe-value"); err != nil {
			opErr = err
		}
		if _, _, err := c.query("probe-key"); err != nil {
			opErr = err
		}
		rtts = append(rtts, time.Since(t0)/2)
	})
	if opErr != nil {
		return fmt.Errorf("shard probe: %w", opErr)
	}
	out["shard.gateway_http_us"] = percentile(durationsUS(rtts), 50)

	router := shard.Router{Shards: 2}
	out["shard.router_ns"], _ = perOp(func() { sink = router.Shard("w-000123") })

	chain := make([]types.Block, 1000)
	prev := types.ZeroBlockID
	for i := range chain {
		chain[i] = types.Block{Slot: types.Slot(i + 1), Parent: prev, Payload: []byte{0}}
		prev = chain[i].ID()
	}
	ns, _ := perOp(func() { sink = shard.PrefixDigest(chain, len(chain)) })
	out["shard.prefix_digest_us_per_kblock"] = ns / 1e3

	anchor := shard.Anchor{Shard: 1, Epoch: 7, Slots: 1000, Digest: shard.PrefixDigest(chain, 10)}
	out["shard.anchor_codec_ns"], _ = perOp(func() { sink, _ = shard.DecodeAnchor(anchor.Encode()) })
	return nil
}
