package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/types"
	"tetrabft/internal/workload"
)

// TestBatchedPipelineScenario drives the offered-load path end to end on the
// simulator: the named scenario must commit batched transactions, the
// decided-tx count must equal the chain's carried transactions, and the
// latency percentiles must be ordered and positive.
func TestBatchedPipelineScenario(t *testing.T) {
	sc, ok := ByName("batched-pipeline")
	if !ok {
		t.Fatal("batched-pipeline scenario missing")
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.DecidedTxs == 0 {
		t.Fatal("no transactions decided")
	}
	carried := 0
	for _, b := range res.Chain {
		carried += b.NumTxs()
	}
	if carried != res.DecidedTxs {
		t.Fatalf("DecidedTxs %d, chain carries %d", res.DecidedTxs, carried)
	}
	if res.TxLatencyP50 <= 0 || res.TxLatencyP99 < res.TxLatencyP50 {
		t.Fatalf("bad latency percentiles p50=%d p99=%d", res.TxLatencyP50, res.TxLatencyP99)
	}
	// Batching must actually batch: with 300 offered txs and 12 slots, some
	// block must carry more than one transaction.
	max := 0
	for _, b := range res.Chain {
		if n := b.NumTxs(); n > max {
			max = n
		}
	}
	if max < 2 {
		t.Fatalf("no block carried a real batch (max %d txs)", max)
	}
}

// TestOfferedLoadDeterminism re-runs the batched scenario and demands
// byte-identical results — the shared timed mempool must not introduce
// ordering nondeterminism on the simulator.
func TestOfferedLoadDeterminism(t *testing.T) {
	sc, _ := ByName("batched-pipeline")
	a, err := Run(sc)
	if err != nil {
		t.Fatalf("run a: %v", err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatalf("run b: %v", err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("two identical offered-load runs diverged")
	}
}

// TestOfferedLoadValidation covers the new spec fields' error paths.
func TestOfferedLoadValidation(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"negative tx_count", Scenario{Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2, TxCount: -1}}, "negative"},
		{"exclusive streams", Scenario{Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2, TxCount: 5,
				Transactions: []TxSpec{{Node: 0, Op: "set", Key: "a", Value: "1"}}}}, "mutually exclusive"},
		{"single-shot window", Scenario{Protocol: TetraBFT, Nodes: 4,
			Workload: WorkloadSpec{Window: 2}}, "multi-shot"},
		{"single-shot tx_count", Scenario{Protocol: TetraBFT, Nodes: 4,
			Workload: WorkloadSpec{TxCount: 5}}, "multi-shot"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.sc); err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
		})
	}
}

// TestTimedArrivalGating checks the arrival schedule: with a finite rate no
// transaction is proposable before its arrival tick, so the earliest commit
// of the last transaction is bounded below by its arrival.
func TestTimedArrivalGating(t *testing.T) {
	p := &plan{sc: Scenario{Workload: WorkloadSpec{TxRate: 200}}}
	sched := p.offeredSchedule(11, 1)
	if got := sched[0].At; got != 0 {
		t.Fatalf("first arrival at %d, want 0", got)
	}
	if got := sched[10].At; got != types.Time(5) {
		t.Fatalf("arrival 10 at %d, want 5 (200 txs / 100 ticks)", got)
	}
	burst := &plan{sc: Scenario{Workload: WorkloadSpec{}}}
	if got := burst.offeredSchedule(100, 1)[99].At; got != 0 {
		t.Fatalf("rate 0 must mean all at t=0, got %d", got)
	}
}

// TestResultTxStats pins the shared percentile fold both engines use.
func TestResultTxStats(t *testing.T) {
	blocks := []types.Block{
		{Slot: 1, Txs: [][]byte{[]byte("a"), []byte("b")}},
		{Slot: 2, Txs: [][]byte{[]byte("c")}},
	}
	commit := &commitRecord{}
	commit.decide(0, 1, "", 10)
	commit.decide(0, 2, "", 30)
	load := offeredFrom([]workload.Arrival{{At: 0, Payload: []byte("a")}, {At: 5, Payload: []byte("b")}, {At: 10, Payload: []byte("c")}})
	fold := func(chain []types.Block, commits *commitRecord, load *offered) Result {
		var r Result
		dep := &deployment{p: &plan{}, loads: []*offered{load}}
		if err := dep.fold(&r, []foldInput{{chain: chain, commits: commits}}, nil, nil); err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := fold(blocks, commit, load)
	if r.DecidedTxs != 3 || r.OfferedTxs != 3 {
		t.Fatalf("DecidedTxs = %d, OfferedTxs = %d, want 3 and 3", r.DecidedTxs, r.OfferedTxs)
	}
	// latencies: a=10, b=5, c=20 → sorted {5,10,20}; p50 = 2nd = 10, p99 = 3rd = 20.
	if r.TxLatencyP50 != 10 || r.TxLatencyP99 != 20 {
		t.Fatalf("p50=%d p99=%d, want 10/20", r.TxLatencyP50, r.TxLatencyP99)
	}
	// A slot with no commit record or an unknown tx contributes to the count
	// but not the percentiles.
	r2 := fold([]types.Block{{Slot: 3, Txs: [][]byte{[]byte("x")}}}, nil, offeredFrom(nil))
	if !reflect.DeepEqual(r2, Result{DecidedTxs: 1}) {
		t.Fatalf("unexpected fold on unmatched chain: %+v", r2)
	}
}

// randomSchedule draws an arrival schedule with ties in At, bursts and empty
// gaps; payloads are unique.
func randomSchedule(rng *rand.Rand, count int) []workload.Arrival {
	gaps := []types.Time{0, 0, 0, 1, 2, 40}
	sched := make([]workload.Arrival, count)
	at := types.Time(rng.Intn(5))
	for i := range sched {
		at += gaps[rng.Intn(len(gaps))]
		sched[i] = workload.Arrival{At: at, Payload: []byte(fmt.Sprintf("tx-%d", i))}
	}
	return sched
}

// TestOfferedMatchesTimedMempool is the differential test of the cursor
// stream against its reference: over seeded random schedules and random
// (now, max) sequences — max <= 0, now before the first arrival and now
// moving backwards included — offered.drain and TimedMempool.DrainReady
// return identical batches until the stream is exhausted, and so do the two
// multishot batch sources.
func TestOfferedMatchesTimedMempool(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sched := randomSchedule(rng, rng.Intn(400))
		ref := blockchain.NewTimedMempool(len(sched))
		for _, a := range sched {
			ref.Submit(a.At, a.Payload)
		}
		load := offeredFrom(sched)
		if len(load.At) != len(sched) {
			t.Fatalf("seed %d: %d arrival times for %d arrivals", seed, len(load.At), len(sched))
		}
		refSrc, loadSrc := ref.BatchSource(7), load.batchSource(7)
		var now types.Time
		for step := 0; ref.Len() > 0 || step == 0; step++ {
			var want []blockchain.Tx
			var got [][]byte
			if seed%2 == 0 && step%3 == 0 {
				for _, tx := range refSrc(0, now) {
					want = append(want, tx)
				}
				got = loadSrc(0, now)
			} else {
				max := []int{-1, 0, 1, 3, 64}[rng.Intn(5)]
				want, got = ref.DrainReady(now, max), load.drain(now, max)
			}
			if len(got) != len(want) || (got == nil) != (want == nil) {
				t.Fatalf("seed %d step %d now %d: got %d txs (nil=%v), want %d (nil=%v)", seed, step, now, len(got), got == nil, len(want), want == nil)
			}
			for i := range want {
				if string(got[i]) != string(want[i]) {
					t.Fatalf("seed %d step %d: tx %d = %q, want %q", seed, step, i, got[i], want[i])
				}
			}
			now += types.Time(rng.Intn(30)) - 5
		}
		if got := load.drain(1<<40, 0); got != nil {
			t.Fatalf("seed %d: %d txs left after the reference ran dry", seed, len(got))
		}
	}
}

// TestOfferedDrainCostBound pins the O(batch) drain: taking 64 transactions
// from a 50,000-arrival stream allocates nothing, and touches at most 64
// slice headers' worth of bytes, whether nearly all of the stream or nearly
// none of it remains.
func TestOfferedDrainCostBound(t *testing.T) {
	const batch, budget = 64, 64*24 + 64
	rng := rand.New(rand.NewSource(1))
	load := offeredFrom(randomSchedule(rng, 50000))
	far := types.Time(1 << 40)
	measure := func(label string) {
		const runs = 100
		if allocs := testing.AllocsPerRun(runs, func() { load.drain(far, batch) }); allocs > 0 {
			t.Errorf("%s: %.1f allocs per drain, want 0", label, allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if got := load.drain(far, batch); len(got) != batch {
				t.Fatalf("%s: drained %d, want %d", label, len(got), batch)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
			t.Errorf("%s: %d bytes per drain, want <= %d", label, per, budget)
		}
	}
	measure("full backlog")
	for len(load.Payloads)-load.head > 15000 {
		load.drain(far, 1000)
	}
	measure("short backlog")
}

// TestOfferedConcurrentDrain: four goroutines (the TCP engines' event loops)
// draining one stream hand out every payload exactly once.
func TestOfferedConcurrentDrain(t *testing.T) {
	sched := randomSchedule(rand.New(rand.NewSource(2)), 20000)
	load := offeredFrom(sched)
	var wg sync.WaitGroup
	got := make([][][]byte, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				batch := load.drain(1<<40, 1+g*7)
				if batch == nil {
					return
				}
				got[g] = append(got[g], batch...)
			}
		}()
	}
	wg.Wait()
	seen := make(map[string]int, len(sched))
	for _, txs := range got {
		for _, tx := range txs {
			seen[string(tx)]++
		}
	}
	if len(seen) != len(sched) {
		t.Fatalf("%d distinct payloads handed out, want %d", len(seen), len(sched))
	}
	for tx, n := range seen {
		if n != 1 {
			t.Fatalf("payload %q handed out %d times", tx, n)
		}
	}
}

// mapTxLatencies is the latency fold as it was before offered kept a batch
// index: a map from every scheduled payload to its arrival tick, built up
// front. TestTxLatenciesMatchArrivalMap holds offered.latencies to it.
func mapTxLatencies(chain []types.Block, commitAt map[types.Slot]int64, sched []workload.Arrival) (txs int, lats []int64) {
	arrivals := make(map[string]types.Time, len(sched))
	for _, a := range sched {
		arrivals[string(a.Payload)] = a.At
	}
	for _, b := range chain {
		txs += b.NumTxs()
		c, ok := commitAt[b.Slot]
		if !ok {
			continue
		}
		for _, tx := range b.Txs {
			at, ok := arrivals[string(tx)]
			if !ok {
				continue
			}
			lats = append(lats, c-int64(at))
		}
	}
	return txs, lats
}

// copyTxs deep-copies a batch, as a decoded TCP proposal carries it.
func copyTxs(txs [][]byte) [][]byte {
	out := make([][]byte, len(txs))
	for i, tx := range txs {
		out[i] = append([]byte(nil), tx...)
	}
	return out
}

// TestTxLatenciesMatchArrivalMap drains seeded random schedules at random
// (now, max) steps, builds chains from the drained batches and requires the
// same (txs, lats) from offered.latencies as from the map fold it replaced. Blocks
// are drained batches (shared or copied bytes), two consecutive batches in
// one block, reordered batches, batches with a foreign or an out-of-place
// (often never-drained) transaction mixed in, and empty blocks; some slots have no commit record.
// A chain of whole batches must be folded without the full payload index.
func TestTxLatenciesMatchArrivalMap(t *testing.T) {
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sched := randomSchedule(rng, rng.Intn(600))
		load := offeredFrom(sched)
		var batches [][][]byte
		var now types.Time
		for load.head < len(sched) {
			if b := load.drain(now, []int{-1, 1, 4, 64}[rng.Intn(4)]); b != nil {
				batches = append(batches, b)
			}
			now += types.Time(rng.Intn(20))
			if rng.Intn(4) == 0 {
				break // leave part of the schedule undrained
			}
		}
		commitAt := make(map[types.Slot]int64)
		var honest, mixed []types.Block
		for i, b := range batches {
			slot := types.Slot(i + 1)
			if rng.Intn(8) != 0 {
				commitAt[slot] = int64(now) + int64(rng.Intn(50))
			}
			txs := b
			if seed%2 == 0 {
				txs = copyTxs(b)
			}
			honest = append(honest, types.Block{Slot: slot, Txs: txs})

			switch rng.Intn(6) {
			case 0: // this batch and the next in one block
				if i+1 < len(batches) {
					txs = append(append([][]byte(nil), b...), batches[i+1]...)
				}
			case 1: // reordered
				txs = copyTxs(b)
				rng.Shuffle(len(txs), func(x, y int) { txs[x], txs[y] = txs[y], txs[x] })
			case 2: // a foreign transaction at a random position
				txs = copyTxs(b)
				at := rng.Intn(len(txs) + 1)
				txs = append(txs[:at], append([][]byte{[]byte(fmt.Sprintf("foreign-%d", i))}, txs[at:]...)...)
			case 3: // the schedule's last transaction, out of place and often never drained
				if len(sched) > 0 {
					txs = append(copyTxs(b), sched[len(sched)-1].Payload)
				}
			case 4:
				txs = nil
			}
			mixed = append(mixed, types.Block{Slot: slot, Txs: txs})
		}

		committed := &commitRecord{}
		for slot, c := range commitAt {
			committed.decide(0, slot, "", types.Time(c))
		}
		gotTxs, gotLats := load.latencies(honest, committed)
		wantTxs, wantLats := mapTxLatencies(honest, commitAt, sched)
		if gotTxs != wantTxs || !slices.Equal(gotLats, wantLats) {
			t.Fatalf("seed %d, drained batches: (%d, %v), map fold (%d, %v)", seed, gotTxs, gotLats, wantTxs, wantLats)
		}
		if load.index != nil {
			t.Fatalf("seed %d: a chain of drained batches built the full payload index", seed)
		}
		gotTxs, gotLats = load.latencies(mixed, committed)
		wantTxs, wantLats = mapTxLatencies(mixed, commitAt, sched)
		if gotTxs != wantTxs || !slices.Equal(gotLats, wantLats) {
			t.Fatalf("seed %d, mixed blocks: (%d, %v), map fold (%d, %v)", seed, gotTxs, gotLats, wantTxs, wantLats)
		}
	}
}

// TestNewOfferedAllocsFlat pins the stream's set-up cost: the same number of
// allocations for 50,000 arrivals as for 10 — no per-transaction index.
func TestNewOfferedAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small, large := randomSchedule(rng, 10), randomSchedule(rng, 50000)
	a := testing.AllocsPerRun(20, func() { offeredFrom(small) })
	b := testing.AllocsPerRun(20, func() { offeredFrom(large) })
	if a != b || b > 4 {
		t.Fatalf("newOffered: %.0f allocations for 10 arrivals, %.0f for 50,000; want equal and <= 4", a, b)
	}
}

// streamSink keeps the streams TestUnshardedStreamAllocs builds on the heap,
// as a run's deployment keeps them.
var streamSink []*offered

// discard is a workload.Sink that keeps nothing.
type discard struct{}

func (discard) Arrive(types.Time, int, string, []byte) {}

// allocated returns the allocations and bytes a call of f makes, averaged
// over four calls after a warm-up call, as testing.AllocsPerRun counts.
func allocated(f func()) (allocs, bytes uint64) {
	const runs = 4
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestUnshardedStreamAllocs pins the one-stream case of the stream builder:
// an unsharded plan's stream, generated on the producer and waited for,
// costs what the generator costs on its own plus the stream's columns plus
// a fixed hand-off (the producer, its goroutine, the stream's record and
// batch index), allocation for allocation and within 1 KiB of bytes, the
// same at 10 arrivals as at 50,000. The schedule goes straight into the
// stream's columns, so a routing pass over it, a copy of it such as an
// []Arrival in between (56 bytes an arrival), or an allocation per
// arrival or per publication fails the test. The collector is off while it
// counts, so that its own allocations do not blur the counts.
func TestUnshardedStreamAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations blur the counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var handOff []uint64
	for _, n := range []int{10, 50000} {
		p := &plan{sc: Scenario{Workload: WorkloadSpec{TxCount: n, Arrival: &workload.ArrivalSpec{Rate: 300}}}}
		genAllocs, genBytes := allocated(func() { p.offeredStream(n, 1, discard{}) })
		colAllocs, colBytes := allocated(func() {
			o := &offered{}
			o.At, o.Payloads = make([]types.Time, 0, n), make([][]byte, 0, n)
			streamSink = []*offered{o}
		})
		// The runtime itself allocates now and then when a goroutine parks
		// (a sudog when its processor's cache is empty), so the fewest of
		// three counts is the builder's own.
		gotAllocs, gotBytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range 3 {
			allocs, bytes := allocated(func() {
				feed, loads := buildShardWorkload(p)
				if loads[0].SyncAll(); len(loads[0].At) != n {
					t.Fatalf("%d arrivals: the stream holds %d", n, len(loads[0].At))
				}
				feed.Close()
				streamSink = loads
			})
			gotAllocs, gotBytes = min(gotAllocs, allocs), min(gotBytes, bytes)
		}
		if gotAllocs < genAllocs+colAllocs {
			t.Fatalf("%d arrivals: the stream builder made %d allocations, fewer than the generator and the columns (%d)", n, gotAllocs, genAllocs+colAllocs)
		}
		handOff = append(handOff, gotAllocs-genAllocs-colAllocs)
		if want := genBytes + colBytes; gotBytes > want+1024 {
			t.Errorf("%d arrivals: the stream builder allocated %d bytes, the generator and the columns %d", n, gotBytes, want)
		}
	}
	t.Logf("hand-off allocations: %v", handOff)
	if handOff[0] != handOff[1] || handOff[1] > 7 {
		t.Errorf("the producer's hand-off made %d allocations at 10 arrivals and %d at 50,000; want equal and <= 7", handOff[0], handOff[1])
	}
	streamSink = nil
}

// TestSimPipelineAllocsBound pins what a simulated slot allocates, on the
// benchmark's sim-pipeline shape (16 multishot nodes, a Poisson stream of
// 3,000 transactions per 100 ticks in batches of 64) at 800 slots: at most
// 0.079 allocations and 11.8 bytes per simulator event, run set-up,
// schedule and report included (0.079 and 11.74 measured with one finalized
// chain per cluster and the commit record's repeat guard in a slice; 0.079
// and 18.6 with a chain per node, one commit record per cluster and no
// per-node decisions; 0.081 and 22.9 with the paged decision log, the
// map-free fold and drain; 0.083 and 24.0 with one block table per
// multishot slot, a batch map and a commit map; 0.085 and 24.1 before it,
// 27.0 bytes with a flat decision log; 0.140 and 31.3 before the stream was
// generated into its columns, the decision log was paged and the proposal's
// value string was sealed). The collector is off while it counts, so that
// its own allocations do not blur the count.
func TestSimPipelineAllocsBound(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations blur the count")
	}
	const slots = 800
	sc := Scenario{
		Name: "sim-pipeline", Protocol: TetraBFTMulti, Nodes: 16, Seed: 1,
		Workload: WorkloadSpec{
			Slots: slots, TxCount: slots * 3000 / 100 / 2, BatchSize: 64,
			Arrival: &workload.ArrivalSpec{Process: workload.ProcessPoisson, Rate: 3000},
		},
		Stop: StopSpec{AllDecided: true},
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var events int
	allocs, bytes := allocated(func() {
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.DecidedTxs != sc.Workload.TxCount {
			t.Fatalf("decided %d of %d transactions", res.DecidedTxs, sc.Workload.TxCount)
		}
		events = res.Events
	})
	perEvent, bytesPerEvent := float64(allocs)/float64(events), float64(bytes)/float64(events)
	t.Logf("%d allocations and %d bytes over %d events: %.3f and %.1f B per event", allocs, bytes, events, perEvent, bytesPerEvent)
	const bound, bytesBound = 0.079, 11.8
	if perEvent > bound {
		t.Errorf("a sim-pipeline run allocates %.3f times per event, budget %.2f", perEvent, bound)
	}
	if bytesPerEvent > bytesBound {
		t.Errorf("a sim-pipeline run allocates %.1f bytes per event, budget %.1f", bytesPerEvent, bytesBound)
	}
}

// offeredSchedule is the plan's offered stream as a list of arrivals.
func (p *plan) offeredSchedule(count, scale int) []workload.Arrival {
	var l workload.Arrivals
	p.offeredStream(count, scale, &l)
	return l
}

// offeredFrom builds a complete stream from a list of arrivals: the
// synchronous reference for the streams a producer generates.
func offeredFrom(sched []workload.Arrival) *offered {
	o := &offered{}
	o.At, o.Payloads = make([]types.Time, 0, len(sched)), make([][]byte, 0, len(sched))
	for _, a := range sched {
		o.At, o.Payloads = append(o.At, a.At), append(o.Payloads, a.Payload)
	}
	return o
}
