package scenario

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"tetrabft/internal/transport"
	"tetrabft/internal/types"
)

// noLeaks fails t unless, once t has finished, the goroutine count falls
// back within 2 s to what it was when noLeaks was called, and every replica
// runtime t made holds no pending timer. Idle HTTP keep-alive connections
// are closed first: they belong to the test's client, not to the run.
func noLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	var mu sync.Mutex
	var made []*transport.Runtime
	orig := newRuntime
	newRuntime = func(m types.Machine, cfg transport.Config) (*transport.Runtime, error) {
		rt, err := orig(m, cfg)
		if err == nil {
			mu.Lock()
			made = append(made, rt)
			mu.Unlock()
		}
		return rt, err
	}
	t.Cleanup(func() {
		newRuntime = orig
		http.DefaultClient.CloseIdleConnections()
		if err := goroutinesBack(before, 2*time.Second); err != nil {
			t.Error(err)
		}
		mu.Lock()
		defer mu.Unlock()
		for i, rt := range made {
			if n := rt.ActiveTimers(); n != 0 {
				t.Errorf("runtime %d of %d (%s) holds %d pending timers after the run", i+1, len(made), rt.Addr(), n)
			}
		}
	})
}

// goroutinesBack waits up to d for the goroutine count to fall to n, and
// dumps every goroutine if it does not.
func goroutinesBack(n int, d time.Duration) error {
	deadline := time.Now().Add(d)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines still running, %d before:\n%s", runtime.NumGoroutine(), n, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// testCluster registers a four-replica cluster with a fresh TCP run, with
// the given crash-restart faults, and closes the run when t ends.
func testCluster(t *testing.T, crashes ...FaultSpec) *tcpCluster {
	t.Helper()
	p, err := Scenario{
		Protocol: TetraBFTMulti, Engine: EngineTCP, Nodes: 4,
		Workload: WorkloadSpec{Slots: 3}, Faults: crashes,
	}.compile()
	if err != nil {
		t.Fatal(err)
	}
	r, err := newTCPRun(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	return r.add(p.clusters[0], nil, nil)
}

// refuses fails t if anything accepts connections on addr.
func refuses(t *testing.T, addr, what string) {
	t.Helper()
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Errorf("%s: %s still accepts connections", what, addr)
	}
}

// TestLaunchFailureClosesLaunched: when the third replica cannot open its
// WAL (its directory would sit under a regular file), the launch fails and
// takes down the replicas it had already started — nothing listens on
// their addresses and none of their goroutines is left.
func TestLaunchFailureClosesLaunched(t *testing.T) {
	before := runtime.NumGoroutine()
	cl := testCluster(t)
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cl.replicas[2].walDir = filepath.Join(blocker, "wal")
	if err := cl.launch(); err == nil {
		t.Fatal("launch succeeded with an unopenable WAL directory")
	}
	refuses(t, cl.addrs[0], "first replica after the failed launch")
	if err := goroutinesBack(before, 2*time.Second); err != nil {
		t.Error(err)
	}
}

// TestRelaunchAfterClose: a restart that fires while the run shuts down
// must not outlive it. A relaunch invoked after close closes the runtime it
// started; and a cluster closed while its crash and restart timers are due
// leaves nothing listening, whichever way the callbacks interleave.
func TestRelaunchAfterClose(t *testing.T) {
	noLeaks(t)
	cl := testCluster(t)
	if err := cl.run.launch(); err != nil {
		t.Fatal(err)
	}
	rep := cl.replicas[1]
	cl.kill(rep)
	cl.close()
	if err := cl.relaunch(rep, false); err != nil {
		t.Fatal(err)
	}
	refuses(t, cl.addrs[rep.id], "replica relaunched after close")
	if _, rt := cl.live(rep); rt != nil {
		t.Error("a relaunch after close installed a runtime")
	}

	for delay := range 5 {
		cl := testCluster(t, FaultSpec{Type: FaultCrashRestart, Node: 1, CrashAtMS: 0, RestartAtMS: 1})
		if err := cl.run.launch(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(delay) * time.Millisecond) // vary where close lands among the callbacks
		cl.close()
		for _, rep := range cl.replicas {
			refuses(t, cl.addrs[rep.id], fmt.Sprintf("replica %d of a cluster closed %d ms in", rep.id, delay))
		}
	}
}

// TestTCPCrashRestartCatchup is the end-to-end crash-recovery check: the
// bundled tcp-crash-restart scenario hard-kills replica 2 mid-run (its
// listener and connections die with RSTs), relaunches it from its WAL, and
// the run must end with every replica — including the recovered one —
// finalizing the full target chain in agreement.
func TestTCPCrashRestartCatchup(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP run with a scheduled restart")
	}
	noLeaks(t)
	sc, ok := ByName("tcp-crash-restart")
	if !ok {
		t.Fatal("bundled tcp-crash-restart scenario missing")
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finalized) != 4 {
		t.Fatalf("finalized watermarks from %d replicas, want 4", len(res.Finalized))
	}
	for _, f := range res.Finalized {
		if f.Slot < types.Slot(sc.Workload.Slots) {
			t.Errorf("replica %d finalized slot %d, want ≥ %d", f.Node, f.Slot, sc.Workload.Slots)
		}
	}
	// Agreement across chains is enforced inside runTCP; re-check the
	// recovered replica's chain explicitly against the reference.
	if len(res.Chains) != 4 {
		t.Fatalf("chains from %d replicas, want 4", len(res.Chains))
	}
	var recovered []types.Block
	for _, c := range res.Chains {
		if c.Node == 2 {
			recovered = c.Blocks
		}
	}
	if int64(len(recovered)) < sc.Workload.Slots {
		t.Fatalf("recovered replica rebuilt %d blocks, want ≥ %d", len(recovered), sc.Workload.Slots)
	}
	for i, b := range recovered {
		if i < len(res.Chain) && b.ID() != res.Chain[i].ID() {
			t.Fatalf("recovered replica diverges at slot %d", b.Slot)
		}
	}
	// The restart shows up in the link counters: peers re-dial replica 2's
	// rebound listener, and/or the restarted runtime re-dials them.
	if len(res.Transport) != 4 {
		t.Fatalf("transport stats from %d replicas, want 4", len(res.Transport))
	}
	var reconnects int64
	for _, tr := range res.Transport {
		reconnects += tr.Reconnects
	}
	if reconnects == 0 {
		t.Error("crash-restart run recorded no reconnects")
	}
	// Section 3.1 / Table 1: the persistent footprint stays constant-size
	// regardless of chain length.
	if res.MaxStorageBytes <= 0 || res.MaxStorageBytes > 2048 {
		t.Errorf("WAL footprint %d bytes, want small and constant (≤ 2048)", res.MaxStorageBytes)
	}
}

// TestTCPWipedWALRestartsFresh: with wipe_wal the restarted replica comes
// back amnesiac and must still converge purely via catch-up — the
// recoverable-node model degraded to a brand-new joiner.
func TestTCPWipedWALRestartsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP run with a scheduled restart")
	}
	noLeaks(t)
	res, err := Run(Scenario{
		Name:     "wiped-wal",
		Engine:   EngineTCP,
		Protocol: TetraBFTMulti,
		Nodes:    4,
		Workload: WorkloadSpec{Slots: 4},
		Faults: []FaultSpec{{
			Type: FaultCrashRestart, Node: 1,
			CrashAtMS: 250, RestartAtMS: 700, WipeWAL: true,
		}},
		Stop: StopSpec{WallClockMS: 30000},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Finalized {
		if f.Slot < 4 {
			t.Errorf("replica %d finalized slot %d, want ≥ 4", f.Node, f.Slot)
		}
	}
}

// TestTCPSilentReplica: a silent fault over TCP means the node's process
// never exists — peers dial a dead address for the whole run, and the
// held-frame TTL plus backoff must degrade gracefully while the three
// live replicas finalize (n=4 tolerates f=1).
func TestTCPSilentReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP run")
	}
	noLeaks(t)
	res, err := Run(Scenario{
		Name:     "tcp-silent",
		Engine:   EngineTCP,
		Protocol: TetraBFTMulti,
		Nodes:    4,
		Faults:   []FaultSpec{{Type: FaultSilent, Node: 3}},
		Workload: WorkloadSpec{Slots: 3},
		Stop:     StopSpec{WallClockMS: 30000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finalized) != 3 {
		t.Fatalf("finalized watermarks from %d replicas, want 3", len(res.Finalized))
	}
	for _, f := range res.Finalized {
		if f.Slot < 3 {
			t.Errorf("replica %d finalized slot %d, want ≥ 3", f.Node, f.Slot)
		}
	}
}

// TestTCPPartitionHeals: a partition fault over TCP severs cross-group
// frames at the chaos layer; a 2-2 split has no quorum, so finalization
// can only complete after the window closes.
func TestTCPPartitionHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP run")
	}
	noLeaks(t)
	res, err := Run(Scenario{
		Name:     "tcp-partition-heal",
		Engine:   EngineTCP,
		Protocol: TetraBFTMulti,
		Nodes:    4,
		Faults: []FaultSpec{{
			Type:   FaultPartition,
			Groups: [][]types.NodeID{{0, 1}, {2, 3}},
			To:     300, // ticks = ms over TCP
		}},
		Workload: WorkloadSpec{Slots: 2},
		Stop:     StopSpec{WallClockMS: 30000},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Finalized {
		if f.Slot < 2 {
			t.Errorf("replica %d finalized slot %d, want ≥ 2", f.Node, f.Slot)
		}
	}
	if res.FinishedAt < 250 {
		t.Errorf("run finished at %dms, inside the 300ms partition window — the partition did not bite", res.FinishedAt)
	}
}

// TestTCPPartitionBounds: the TCP link predicate drops a cross-group frame
// exactly while elapsed wall-clock time is in [From, To) ticks of some
// partition fault (To = 0 never heals), to the nanosecond at each bound,
// and never drops a frame within a group or to an unlisted node.
func TestTCPPartitionBounds(t *testing.T) {
	faults := []FaultSpec{
		{Type: FaultPartition, Groups: [][]types.NodeID{{0, 1}, {2, 3}}, From: 5, To: 9},
		{Type: FaultPartition, Groups: [][]types.NodeID{{0}, {1, 2}}, From: 20},
		{Type: FaultCrashRestart, Node: 3, From: 1, To: 2},
	}
	dropped := buildPartitionFn(faults)
	split := func(f FaultSpec, a, b types.NodeID) bool {
		side := func(n types.NodeID) int {
			for i, g := range f.Groups {
				if slices.Contains(g, n) {
					return i
				}
			}
			return -1
		}
		return side(a) >= 0 && side(b) >= 0 && side(a) != side(b)
	}
	for tick := time.Duration(1); tick <= 25; tick++ {
		for _, elapsed := range []time.Duration{tick*transport.Tick - 1, tick * transport.Tick, tick*transport.Tick + transport.Tick/2} {
			for from := types.NodeID(0); from < 5; from++ {
				for to := types.NodeID(0); to < 5; to++ {
					want := false
					for _, f := range faults[:2] {
						start, end := time.Duration(f.From)*transport.Tick, time.Duration(f.To)*transport.Tick
						if elapsed >= start && (end == 0 || elapsed < end) && split(f, from, to) {
							want = true
						}
					}
					if got := dropped(from, to, elapsed); got != want {
						t.Errorf("%d→%d at %v: dropped %v, want %v", from, to, elapsed, got, want)
					}
				}
			}
		}
	}
	if buildPartitionFn(faults[2:]) != nil {
		t.Error("a spec without partition faults built a link predicate")
	}
}

// TestTCPChaosRun: the bundled chaos scenario (duplication + delay on
// every link) still finalizes, and the chaos policy actually fired.
func TestTCPChaosRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP run")
	}
	noLeaks(t)
	sc, ok := ByName("tcp-chaos")
	if !ok {
		t.Fatal("bundled tcp-chaos scenario missing")
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Finalized {
		if f.Slot < types.Slot(sc.Workload.Slots) {
			t.Errorf("replica %d finalized slot %d, want ≥ %d", f.Node, f.Slot, sc.Workload.Slots)
		}
	}
	var duplicated int64
	for _, tr := range res.Transport {
		duplicated += tr.ChaosDuplicated
	}
	if duplicated == 0 {
		t.Error("DupRate 0.2 run duplicated no frames")
	}
}

// TestTCPChaosCompiledTwiceIdentical: compiling the same chaos spec twice
// yields the same per-frame fault pattern on every link — the scenario
// seed fully determines the chaos policy (policy determinism; wall-clock
// interleaving is out of scope by design). A different seed must yield a
// different pattern.
func TestTCPChaosCompiledTwiceIdentical(t *testing.T) {
	noLeaks(t)
	sc, ok := ByName("tcp-chaos")
	if !ok {
		t.Fatal("bundled tcp-chaos scenario missing")
	}
	build := func(s Scenario) *plan {
		p, err := s.compile()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := buildChaos(build(sc))
	b := buildChaos(build(sc))
	if a == nil || b == nil {
		t.Fatal("chaos spec compiled to a clean network")
	}
	scOther := sc
	scOther.Seed = sc.Seed + 1
	c := buildChaos(build(scOther))
	same := true
	for from := types.NodeID(0); from < 4; from++ {
		for to := types.NodeID(0); to < 4; to++ {
			if from == to {
				continue
			}
			for ord := uint64(0); ord < 100; ord++ {
				va := a.Decide(from, to, ord, time.Second)
				if vb := b.Decide(from, to, ord, time.Second); va != vb {
					t.Fatalf("same spec, different verdict on %d→%d frame %d: %+v vs %+v", from, to, ord, va, vb)
				}
				if va != c.Decide(from, to, ord, time.Second) {
					same = false
				}
			}
		}
	}
	if same {
		t.Error("different seeds produced identical fault patterns")
	}
}

// TestTCPWindowedBatchedCrashRestart is the throughput stack under fire: a
// pipelined (window 3), batched offered-load run over real TCP where one
// replica is hard-killed mid-stream and restarted from its WAL. All four
// replicas must converge on the full chain, committed batches must survive
// the crash, and the persistent footprint must stay constant-size even
// though blocks now carry transaction batches.
func TestTCPWindowedBatchedCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP run with a scheduled restart")
	}
	noLeaks(t)
	sc := Scenario{
		Engine:   EngineTCP,
		Protocol: TetraBFTMulti,
		Nodes:    4,
		Workload: WorkloadSpec{
			Slots:     5,
			Window:    3,
			BatchSize: 4,
			TxCount:   64,
			TxRate:    500, // 5 tx/ms: saturating relative to slot cadence
		},
		Faults: []FaultSpec{{
			Type: FaultCrashRestart, Node: 2,
			CrashAtMS: 300, RestartAtMS: 900,
		}},
		Stop:    StopSpec{WallClockMS: 30000},
		Collect: CollectSpec{Chain: true},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finalized) != 4 {
		t.Fatalf("finalized watermarks from %d replicas, want 4", len(res.Finalized))
	}
	for _, f := range res.Finalized {
		if f.Slot < types.Slot(sc.Workload.Slots) {
			t.Errorf("replica %d finalized slot %d, want ≥ %d", f.Node, f.Slot, sc.Workload.Slots)
		}
	}
	// The batched payloads made it through consensus and the crash.
	if res.DecidedTxs == 0 {
		t.Fatal("no transactions decided")
	}
	batched := 0
	for _, b := range res.Chain {
		if b.NumTxs() > 1 {
			batched++
		}
		if b.NumTxs() > sc.Workload.BatchSize {
			t.Errorf("slot %d carries %d txs, cap is %d", b.Slot, b.NumTxs(), sc.Workload.BatchSize)
		}
	}
	if batched == 0 {
		t.Error("no block carried a real batch")
	}
	// The recovered replica's chain matches the reference batch for batch.
	for _, c := range res.Chains {
		if c.Node != 2 {
			continue
		}
		for i, b := range c.Blocks {
			if i < len(res.Chain) && b.ID() != res.Chain[i].ID() {
				t.Fatalf("recovered replica diverges at slot %d", b.Slot)
			}
		}
	}
	// Constant-size WAL: batching must not leak chain-length state into the
	// persistent footprint (same 2048-byte ceiling as the unbatched test).
	if res.MaxStorageBytes <= 0 || res.MaxStorageBytes > 2048 {
		t.Errorf("WAL footprint %d bytes, want small and constant (≤ 2048)", res.MaxStorageBytes)
	}
	if res.TxLatencyP50 <= 0 || res.TxLatencyP99 < res.TxLatencyP50 {
		t.Errorf("bad commit-latency percentiles p50=%d p99=%d", res.TxLatencyP50, res.TxLatencyP99)
	}
}
