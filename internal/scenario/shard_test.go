package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/shard"
	"tetrabft/internal/types"
	"tetrabft/internal/workload"
)

// shardedBase is a minimal valid sharded sim spec the validation table
// mutates from.
const shardedBase = `{
  "protocol": "tetrabft-multi",
  "shards": {"count": 2},
  "workload": {"slots": 6},
  "stop": {"horizon": 4000}
}`

// TestShardsSpecParseErrors pins the strict-parse contract of the shards
// block: unknown fields and every invalid combination fail Parse with a
// named error, so a typo in a shared spec cannot silently run a different
// experiment.
func TestShardsSpecParseErrors(t *testing.T) {
	if _, err := Parse([]byte(shardedBase)); err != nil {
		t.Fatalf("base sharded spec must parse: %v", err)
	}
	cases := []struct {
		name, spec, want string
	}{
		{"unknown shards field",
			`{"protocol":"tetrabft-multi","shards":{"count":2,"bogus":1},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: parse: json: unknown field \"bogus\""},
		{"wrong protocol",
			`{"protocol":"tetrabft","shards":{"count":2},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: shards require protocol \"tetrabft-multi\""},
		{"default protocol",
			`{"shards":{"count":2},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: shards require protocol \"tetrabft-multi\""},
		{"nodes and shards",
			`{"protocol":"tetrabft-multi","nodes":4,"shards":{"count":2},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: shards and nodes are mutually exclusive (size clusters with shards.nodes_per_shard)"},
		{"quorum slices",
			`{"protocol":"tetrabft-multi","quorum":{"slices":[{"node":0,"slices":[[0]]}]},"shards":{"count":2},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: shards do not support quorum slices"},
		{"zero count",
			`{"protocol":"tetrabft-multi","shards":{"count":0},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: shards.count = 0 outside [1, 16]"},
		{"count too large",
			`{"protocol":"tetrabft-multi","shards":{"count":17},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: shards.count = 17 outside [1, 16]"},
		{"undersized shard",
			`{"protocol":"tetrabft-multi","shards":{"count":2,"nodes_per_shard":3},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: shards.nodes_per_shard = 3 below the n ≥ 3f+1 minimum of 4"},
		{"undersized anchor",
			`{"protocol":"tetrabft-multi","shards":{"count":2,"anchor_nodes":3},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: shards.anchor_nodes = 3 below the n ≥ 3f+1 minimum of 4"},
		{"negative anchor interval",
			`{"protocol":"tetrabft-multi","shards":{"count":2,"anchor_interval":-1},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: negative shards.anchor_interval"},
		{"cross mix out of range",
			`{"protocol":"tetrabft-multi","shards":{"count":2,"cross_mix":1.0},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: shards.cross_mix = 1 outside [0, 1)"},
		{"missing slots",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"stop":{"horizon":4000}}`,
			"scenario: shards need workload.slots (the per-shard finalized-slot target)"},
		{"explicit max_slot",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"workload":{"slots":6,"max_slot":9},"stop":{"horizon":4000}}`,
			"scenario: shards derive the proposal cap from workload.slots; max_slot must be 0"},
		{"explicit transactions",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"workload":{"slots":6,"transactions":[{"node":0,"op":"set","key":"k"}]},"stop":{"horizon":4000}}`,
			"scenario: shards support only the offered-load stream (tx_count), not explicit transactions"},
		{"all_decided stop",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"workload":{"slots":6},"stop":{"horizon":4000,"all_decided":true}}`,
			"scenario: shards stop on their own completion rule; stop.all_decided must be false"},
		{"sim without horizon",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"workload":{"slots":6}}`,
			"scenario: sharded sim runs need stop.horizon (lockstep clusters never drain the event queue)"},
		{"tcp with horizon",
			`{"protocol":"tetrabft-multi","engine":"tcp","shards":{"count":2},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: engine \"tcp\" stops on workload.slots + stop.wall_clock_ms only"},
		{"collect chain",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"workload":{"slots":6},"stop":{"horizon":4000},"collect":{"chain":true}}`,
			"scenario: shards do not collect traces or chains (the result folds per-shard stats)"},
		{"per-link delay",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"network":{"delay":{"model":"per-link","default":1}},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: shards do not support per-link delays (node IDs are cluster-local)"},
		{"event budget",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"network":{"event_budget":1000},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: shards do not support an event budget"},
		{"equivocator fault",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"faults":[{"type":"equivocator","node":0}],"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: shards support only silent and crash-restart faults, not \"equivocator\""},
		{"fault shard out of range",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"faults":[{"type":"silent","shard":2,"node":0}],"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: silent fault targets shard 2 outside [0, 2)"},
		{"fault node out of range",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"faults":[{"type":"silent","shard":0,"node":4}],"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: silent fault targets node 4 outside shard 0's membership [0, 4)"},
		{"crash-restart on sim",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"faults":[{"type":"crash-restart","shard":0,"node":1,"crash_at_ms":100}],"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: crash-restart requires engine \"tcp\" (the simulator has no processes to kill)"},
		{"duplicate silent fault",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"faults":[{"type":"silent","shard":1,"node":2},{"type":"silent","shard":1,"node":2}],"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: shard 1 node 2 has two node-replacing faults"},
		{"mutation",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"mutation":"skip-rule-3","workload":{"slots":6},"stop":{"horizon":4000}}`,
			"scenario: shards do not support mutations"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.spec))
		if err == nil {
			t.Errorf("%s: Parse accepted an invalid sharded spec", tc.name)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
}

// TestValidationParity applies each mistake in a field that flat and
// sharded specs share to a flat base (tetrabft-multi, 4 nodes) and to
// shardedBase: one check serves both, so both must reject it with the same
// text, save that a sharded run names a node by its cluster ("shard 0 node 1").
func TestValidationParity(t *testing.T) {
	base := func(sharded bool, engine Engine) Scenario {
		sc := Scenario{Protocol: TetraBFTMulti, Nodes: 4, Workload: WorkloadSpec{Slots: 2}}
		if sharded {
			var err error
			if sc, err = Parse([]byte(shardedBase)); err != nil {
				t.Fatal(err)
			}
		}
		sc.Engine = engine
		if engine == EngineTCP {
			sc.Stop.Horizon = 0
		}
		return sc
	}
	crash := func(crashAt, restartAt int64) FaultSpec {
		return FaultSpec{Type: FaultCrashRestart, Node: 1, CrashAtMS: crashAt, RestartAtMS: restartAt}
	}
	cases := []struct {
		name    string
		engine  Engine
		mistake func(*Scenario)
		want    string
	}{
		{"negative seed", EngineSim, func(sc *Scenario) { sc.Seed = -1 }, "scenario: negative seed -1"},
		{"negative delta", EngineSim, func(sc *Scenario) { sc.Delta = -1 }, "scenario: negative delta or timeout_factor"},
		{"drop_before_gst 1.5", EngineSim, func(sc *Scenario) { sc.Network.DropBeforeGST = 1.5 }, "scenario: drop_before_gst = 1.5 outside [0, 1]"},
		{"negative gst", EngineSim, func(sc *Scenario) { sc.Network.GST = -1 }, "scenario: negative gst or event_budget"},
		{"negative constant delay", EngineSim, func(sc *Scenario) {
			sc.Network.Delay = &DelaySpec{Model: DelayConstant, D: -1}
		}, "scenario: negative delay"},
		{"unknown delay model", EngineSim, func(sc *Scenario) { sc.Network.Delay = &DelaySpec{Model: "warp"} }, "scenario: unknown delay model \"warp\""},
		{"duplicate on sim", EngineSim, func(sc *Scenario) { sc.Network.Duplicate = 0.1 }, "scenario: network.duplicate applies only to engine \"tcp\""},
		{"duplicate 1.5 on tcp", EngineTCP, func(sc *Scenario) { sc.Network.Duplicate = 1.5 }, "scenario: network.duplicate = 1.5 outside [0, 1)"},
		{"negative wall_clock_ms", EngineSim, func(sc *Scenario) { sc.Stop.WallClockMS = -1 }, "scenario: negative stop bound"},
		{"tx_rate without tx_count", EngineSim, func(sc *Scenario) { sc.Workload.TxRate = 100 }, ErrRateWithoutCount.Error()},
		{"negative max_slot", EngineSim, func(sc *Scenario) { sc.Workload.MaxSlot = -1 }, "scenario: negative slots or max_slot"},
		{"negative batch_size", EngineSim, func(sc *Scenario) { sc.Workload.BatchSize = -1 }, "scenario: negative tx_count, tx_rate, batch_size or window"},
		{"tx_count with transactions", EngineSim, func(sc *Scenario) {
			sc.Workload.TxCount = 10
			sc.Workload.Transactions = []TxSpec{{Node: 0, Op: "set", Key: "k"}}
		}, "scenario: tx_count (offered-load stream) and transactions (explicit mempool) are mutually exclusive"},
		{"arrival with tx_rate", EngineSim, func(sc *Scenario) {
			sc.Workload.TxCount, sc.Workload.TxRate = 10, 5
			sc.Workload.Arrival = &workload.ArrivalSpec{Rate: 1}
		}, "scenario: workload.arrival and tx_rate are mutually exclusive (the arrival process is the pacing)"},
		{"cohorts without arrival", EngineSim, func(sc *Scenario) {
			sc.Workload.Cohorts = []workload.CohortSpec{{Weight: 1}}
		}, "scenario: workload.cohorts/phases require workload.arrival"},
		{"crash-restart on sim", EngineSim, func(sc *Scenario) { sc.Faults = []FaultSpec{crash(100, 0)} }, "scenario: crash-restart requires engine \"tcp\" (the simulator has no processes to kill)"},
		{"negative crash_at_ms", EngineTCP, func(sc *Scenario) { sc.Faults = []FaultSpec{crash(-1, 0)} }, "scenario: negative crash-restart schedule"},
		{"restart before crash", EngineTCP, func(sc *Scenario) { sc.Faults = []FaultSpec{crash(100, 50)} }, "scenario: node 1 restarts at 50ms, before its crash at 100ms"},
		{"two crash-restarts on one node", EngineTCP, func(sc *Scenario) {
			sc.Faults = []FaultSpec{crash(50, 100), crash(200, 0)}
		}, "scenario: node 1 has two crash-restart faults"},
	}
	for _, sharded := range []bool{false, true} {
		for _, engine := range []Engine{EngineSim, EngineTCP} {
			if err := base(sharded, engine).Validate(); err != nil {
				t.Fatalf("sharded=%v engine %q: base spec rejected: %v", sharded, engine, err)
			}
		}
	}
	for _, tc := range cases {
		for _, sharded := range []bool{false, true} {
			sc := base(sharded, tc.engine)
			tc.mistake(&sc)
			want := tc.want
			if sharded {
				want = strings.Replace(want, "scenario: node", "scenario: shard 0 node", 1)
			}
			err := sc.Validate()
			switch {
			case err == nil:
				t.Errorf("%s (sharded=%v): spec accepted", tc.name, sharded)
			case err.Error() != want:
				t.Errorf("%s (sharded=%v): error %q, want %q", tc.name, sharded, err, want)
			case tc.want == ErrRateWithoutCount.Error() && !errors.Is(err, ErrRateWithoutCount):
				t.Errorf("%s (sharded=%v): error %q is not ErrRateWithoutCount", tc.name, sharded, err)
			}
		}
	}
}

// TestShardedSimDeterministic pins the lockstep engine's reproducibility:
// the bundled sharded scenario, run twice, must marshal to byte-identical
// results — the sharded analogue of the golden-run pin. The engine drives
// all clusters from one goroutine, so this holds at any GOMAXPROCS.
func TestShardedSimDeterministic(t *testing.T) {
	sc, ok := ByName("sharded-service")
	if !ok {
		t.Fatal("sharded-service scenario missing from the bundle")
	}
	run := func() []byte {
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("sharded sim run is not deterministic:\n  first  %s\n  second %s", a, b)
	}
}

// TestShardedSimProgress sanity-checks the bundled scenario's fold: every
// shard reaches the slot target, transactions commit on both shards, and
// the anchoring loop committed verified digests for each.
func TestShardedSimProgress(t *testing.T) {
	sc, ok := ByName("sharded-service")
	if !ok {
		t.Fatal("sharded-service scenario missing from the bundle")
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) != 2 {
		t.Fatalf("expected 2 shard results, got %d", len(res.Shards))
	}
	for _, sr := range res.Shards {
		if sr.Finalized < sc.Workload.Slots {
			t.Errorf("shard %d finalized %d < target %d", sr.Shard, sr.Finalized, sc.Workload.Slots)
		}
		if sr.DecidedTxs == 0 {
			t.Errorf("shard %d decided no transactions", sr.Shard)
		}
		if sr.AnchorEpochs == 0 || sr.AnchoredSlots == 0 {
			t.Errorf("shard %d was never anchored: %+v", sr.Shard, sr)
		}
		if sr.AnchoredSlots > sr.Finalized+3 {
			t.Errorf("shard %d anchored %d slots beyond its pipeline", sr.Shard, sr.AnchoredSlots)
		}
	}
	if res.DecidedTxs != res.Shards[0].DecidedTxs+res.Shards[1].DecidedTxs {
		t.Errorf("aggregate decided txs %d does not sum the shards", res.DecidedTxs)
	}
	if res.AnchorEpochs != res.Shards[0].AnchorEpochs+res.Shards[1].AnchorEpochs {
		t.Errorf("aggregate anchor epochs %d does not sum the shards", res.AnchorEpochs)
	}
	if res.AnchorLatencyP99 == 0 {
		t.Error("anchor commit latency was not measured")
	}
}

// TestAppliedLogMatchesPrefixDigest is the applied log's differential
// check against the oracle: fed a decided chain a block at a time, or many
// at once, and interleaved with the shorter chain of a replica that is
// catching up, its height and running digest equal PrefixDigest of the
// chain at every height, and its transaction count the chain's. The chain
// is one shard's of the bundled sharded scenario, run as a flat cluster (a
// sharded result carries no chain). Within a sharded run the fold checks
// the same equality at every anchored height.
func TestAppliedLogMatchesPrefixDigest(t *testing.T) {
	sc, ok := ByName("sharded-service")
	if !ok {
		t.Fatal("sharded-service scenario missing from the bundle")
	}
	sc.Shards, sc.Nodes, sc.Workload.Slots, sc.Collect.Chain = nil, 4, 60, true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	chain := res.Chain
	if int64(len(chain)) < sc.Workload.Slots || res.DecidedTxs == 0 {
		t.Fatalf("the run decided %d blocks and %d transactions, want %d blocks and some transactions", len(chain), res.DecidedTxs, sc.Workload.Slots)
	}
	for _, step := range []int{1, 7} {
		log, txs := &appliedLog{digest: shard.NewDigest(), kv: blockchain.NewKV()}, int64(0)
		for h := 0; h < len(chain); {
			log.extend(chain[:h/2]) // a relaunched replica's shorter chain
			next := min(h+step, len(chain))
			for _, b := range chain[h:next] {
				txs += int64(b.NumTxs())
			}
			h = next
			log.extend(chain[:h])
			if got := log.digest.Len(); got != h || log.digest.Sum() != shard.PrefixDigest(chain, h) {
				t.Fatalf("step %d: the log at height %d (want %d) digests differently from PrefixDigest", step, got, h)
			}
			if log.txs != txs {
				t.Fatalf("step %d, height %d: %d decided transactions, want %d", step, h, log.txs, txs)
			}
		}
	}
}

// TestLostAnchorIsNoAgreementViolation: the fold fails a run whose anchor
// log skips an epoch with shard.ErrAnchorLost and not ErrAgreement — the
// anchors between were lost, no history diverged — and still fails a digest
// mismatch with ErrAgreement.
func TestLostAnchorIsNoAgreementViolation(t *testing.T) {
	sc, err := Parse([]byte(shardedBase))
	if err != nil {
		t.Fatal(err)
	}
	p, err := sc.compile()
	if err != nil {
		t.Fatal(err)
	}
	chain := []types.Block{{Slot: 1, Payload: []byte("a")}, {Slot: 2, Payload: []byte("b")}}
	anchorLog := func(epoch int64, digest [32]byte) foldInput {
		tx := shard.Anchor{Shard: 0, Epoch: epoch, Slots: 2, Digest: digest}.Encode()
		return foldInput{chain: []types.Block{{Slot: 1, Txs: [][]byte{tx}}}}
	}
	for _, c := range []struct {
		name   string
		anchor foldInput
		lost   bool
	}{
		{"epoch gap", anchorLog(2, shard.PrefixDigest(chain, 2)), true},
		{"digest mismatch", anchorLog(1, [32]byte{1}), false},
	} {
		dep := newDeployment(p)
		err := dep.fold(&Result{}, []foldInput{{chain: chain}, {chain: chain}, c.anchor}, nil, nil)
		dep.stream.Close()
		if err == nil || errors.Is(err, shard.ErrAnchorLost) != c.lost || errors.Is(err, ErrAgreement) == c.lost {
			t.Errorf("%s: fold = %v: ErrAnchorLost %v, ErrAgreement %v; want lost = %v", c.name, err,
				errors.Is(err, shard.ErrAnchorLost), errors.Is(err, ErrAgreement), c.lost)
		}
	}
}

// TestShardFaultIsolationTCP crash-restarts one replica inside shard 0
// mid-run over real TCP and checks the blast radius: shard 1 and the
// anchor cluster never notice (no reconnects outside the faulted shard),
// every shard still reaches the target, and the recovered shard's anchors
// keep verifying against its decided log (the fold re-checks every digest).
func TestShardFaultIsolationTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP runtimes in -short mode")
	}
	noLeaks(t)
	sc := Scenario{
		Name:     "shard-fault-isolation",
		Protocol: TetraBFTMulti,
		Engine:   EngineTCP,
		Shards:   &ShardsSpec{Count: 2, AnchorInterval: 30},
		Workload: WorkloadSpec{Slots: 6, TxCount: 20, TxRate: 200, Window: 2},
		Faults: []FaultSpec{{
			Type: FaultCrashRestart, Shard: 0, Node: 1,
			CrashAtMS: 250, RestartAtMS: 700,
		}},
		Stop: StopSpec{WallClockMS: 30000},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Shards {
		if sr.Finalized < sc.Workload.Slots {
			t.Errorf("shard %d finalized %d < target %d", sr.Shard, sr.Finalized, sc.Workload.Slots)
		}
		if sr.AnchorEpochs == 0 {
			t.Errorf("shard %d committed no anchors", sr.Shard)
		}
	}
	// The crash is visible only inside shard 0: its peers reconnect to the
	// relaunched replica, while shard 1's links never flap.
	if res.Shards[0].Reconnects == 0 {
		t.Error("faulted shard recorded no reconnects — the crash-restart did not happen")
	}
	if res.Shards[1].Reconnects != 0 {
		t.Errorf("unaffected shard recorded %d reconnects", res.Shards[1].Reconnects)
	}
	// The recovered shard anchored past the crash; its post-restart digest
	// was verified against the decided prefix by the fold (err == nil above).
	if res.Shards[0].AnchoredSlots < sc.Workload.Slots {
		t.Errorf("recovered shard anchored only %d slots, want ≥ %d", res.Shards[0].AnchoredSlots, sc.Workload.Slots)
	}
}

// TestRunWithGateway boots the sharded service over TCP and drives it the
// way a client would: POST transactions for keys homed on two different
// shards through the HTTP gateway, poll /query until both commit, and
// check /status reports anchor progress.
func TestRunWithGateway(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP runtimes in -short mode")
	}
	noLeaks(t)
	sc := Scenario{
		Name:     "gateway",
		Protocol: TetraBFTMulti,
		Engine:   EngineTCP,
		Shards:   &ShardsSpec{Count: 2, AnchorInterval: 30},
		Workload: WorkloadSpec{Slots: 8, Window: 2},
		Stop:     StopSpec{WallClockMS: 30000},
	}
	var gwErr error
	res, err := RunWithGateway(sc, func(base string) {
		// Submit until a key has landed on each of the two shards.
		byShard := map[int]string{}
		for i := 0; len(byShard) < 2 && i < 100; i++ {
			key := fmt.Sprintf("acct-%d", i)
			resp, err := http.PostForm(base+"/submit", url.Values{"key": {key}, "value": {"v-" + key}})
			if err != nil {
				gwErr = err
				return
			}
			var reply struct {
				Shard int `json:"shard"`
			}
			err = json.NewDecoder(resp.Body).Decode(&reply)
			resp.Body.Close()
			if err != nil {
				gwErr = err
				return
			}
			if _, ok := byShard[reply.Shard]; !ok {
				byShard[reply.Shard] = key
			}
		}
		if len(byShard) < 2 {
			gwErr = fmt.Errorf("could not find keys homed on two shards")
			return
		}
		// Poll until both keys are readable from their shards' decided logs.
		deadline := time.Now().Add(20 * time.Second)
		for _, key := range byShard {
			for {
				resp, err := http.Get(base + "/query?key=" + url.QueryEscape(key))
				if err != nil {
					gwErr = err
					return
				}
				var q struct {
					Found bool   `json:"found"`
					Value string `json:"value"`
				}
				err = json.NewDecoder(resp.Body).Decode(&q)
				resp.Body.Close()
				if err != nil {
					gwErr = err
					return
				}
				if q.Found {
					if q.Value != "v-"+key {
						gwErr = fmt.Errorf("key %s: got %q", key, q.Value)
						return
					}
					break
				}
				if time.Now().After(deadline) {
					gwErr = fmt.Errorf("key %s never committed", key)
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	})
	if gwErr != nil {
		t.Fatal(gwErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.AnchorEpochs == 0 {
		t.Error("no anchor epochs committed")
	}
	for _, sr := range res.Shards {
		if sr.Finalized < sc.Workload.Slots {
			t.Errorf("shard %d finalized %d < target %d", sr.Shard, sr.Finalized, sc.Workload.Slots)
		}
	}
}

// TestGatewaySkipsDeadReplica: shard 0's replica 2 crashes at the start of
// the run and never comes back. A key the gateway would hand to that
// replica's mempool must still commit — the backend gives it to the next
// live replica — and so must become readable through /query.
func TestGatewaySkipsDeadReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP runtimes in -short mode")
	}
	noLeaks(t)
	sc := Scenario{
		Name:     "gateway-dead-replica",
		Protocol: TetraBFTMulti,
		Engine:   EngineTCP,
		Shards:   &ShardsSpec{Count: 2, AnchorInterval: 30},
		Workload: WorkloadSpec{Slots: 16, Window: 2},
		Faults:   []FaultSpec{{Type: FaultCrashRestart, Shard: 0, Node: 2}},
		Stop:     StopSpec{WallClockMS: 30000},
	}
	// Keys whose hash is 2 mod 4 live on shard 0 (hash mod 2) and map to
	// its replica 2 (hash mod 4).
	var keys []string
	for i := 0; len(keys) < 3; i++ {
		key := fmt.Sprintf("acct-%d", i)
		h := fnv.New32a()
		h.Write([]byte(key))
		if h.Sum32()%4 == 2 {
			keys = append(keys, key)
		}
	}
	var gwErr error
	_, err := RunWithGateway(sc, func(base string) {
		gwErr = func() error {
			// The crash fires as the run starts; by the time shard 0 has
			// finalized a few slots without replica 2, it is long dead.
			for {
				resp, err := http.Get(base + "/status")
				if err != nil {
					return err
				}
				var st shard.Status
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					return err
				}
				if st.Shards[0].Finalized >= 3 {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			for _, key := range keys {
				resp, err := http.PostForm(base+"/submit", url.Values{"key": {key}, "value": {"v-" + key}})
				if err != nil {
					return err
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("submit %s: %s", key, resp.Status)
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for _, key := range keys {
				for {
					resp, err := http.Get(base + "/query?key=" + url.QueryEscape(key))
					if err != nil {
						return err
					}
					var q struct {
						Found bool `json:"found"`
					}
					err = json.NewDecoder(resp.Body).Decode(&q)
					resp.Body.Close()
					if err != nil {
						return err
					}
					if q.Found {
						break
					}
					if time.Now().After(deadline) {
						return fmt.Errorf("key %s, acknowledged by the gateway, never committed", key)
					}
					time.Sleep(20 * time.Millisecond)
				}
			}
			return nil
		}()
	})
	if gwErr != nil {
		t.Fatal(gwErr)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestGatewayReadsNeverGoBack: once a key reads "found" through the
// gateway, every later answer for it must be "found" too, while replicas of
// the key's shard crash and are relaunched from their WALs. A relaunched
// replica restores no finalized prefix and re-finalizes from slot 1, so a
// gateway that read it during its catch-up would lose keys committed long
// before the crash. The test queries the keys in a tight loop until the run
// ends.
//
// In the second case every replica that holds the shard's chain is down at
// once (replicas 1–3 crash for good), and then replica 0 is relaunched: the
// only live replica is one that has finalized nothing and never will, since
// no peer is left to catch up from. The shard cannot reach its target again,
// so that run ends at its wall-clock limit.
func TestGatewayReadsNeverGoBack(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP runtimes in -short mode")
	}
	// Keys of shard 0 whose submissions go to a replica other than 0 (hash
	// mod 4), so none waits in the mempool of the replica that crashes first.
	var keys []string
	for i := 0; len(keys) < 4; i++ {
		key := fmt.Sprintf("acct-%d", i)
		h := fnv.New32a()
		h.Write([]byte(key))
		if (shard.Router{Shards: 2}).Shard(key) == 0 && h.Sum32()%4 != 0 {
			keys = append(keys, key)
		}
	}
	crash := func(node int, at, restart int64) FaultSpec {
		return FaultSpec{Type: FaultCrashRestart, Shard: 0, Node: types.NodeID(node), CrashAtMS: at, RestartAtMS: restart}
	}
	for _, tc := range []struct {
		name   string
		faults []FaultSpec
		// lagging is the instant (ms) from which the only live replica of
		// shard 0 is the relaunched replica 0 with nothing finalized, and
		// the run's wall-clock limit is lagging+1500; 0 means the run
		// must complete.
		lagging int64
	}{
		{name: "one replica relaunched", faults: []FaultSpec{crash(0, 300, 600)}},
		{
			name:    "every caught-up replica down",
			faults:  []FaultSpec{crash(0, 300, 1000), crash(1, 900, 0), crash(2, 900, 0), crash(3, 900, 0)},
			lagging: 1000,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			noLeaks(t)
			sc := Scenario{
				Name:     "gateway-monotone-reads",
				Protocol: TetraBFTMulti,
				Engine:   EngineTCP,
				Shards:   &ShardsSpec{Count: 2, AnchorInterval: 30},
				// A shard proposes up to slot Slots+3 and finalizes up to
				// Slots, so a key that rides one of the last three blocks
				// never commits (the sharded never-committed family); 40
				// slots keep the keys, submitted at the start, well below
				// them.
				Workload: WorkloadSpec{Slots: 40, Window: 2},
				Faults:   tc.faults,
				Stop:     StopSpec{WallClockMS: 30000},
			}
			if tc.lagging > 0 {
				sc.Stop.WallClockMS = tc.lagging + 1500
			}
			var (
				submitErr, goneBack error
				answers, lagged     int
				found               = make(map[string]bool)
				queried             = make(chan struct{})
			)
			_, err := RunWithGateway(sc, func(base string) {
				start := time.Now()
				for _, key := range keys {
					resp, err := http.PostForm(base+"/submit", url.Values{"key": {key}, "value": {"v-" + key}})
					if err != nil {
						submitErr = err
						close(queried)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						submitErr = fmt.Errorf("submit %s: %s", key, resp.Status)
						close(queried)
						return
					}
				}
				go func() {
					defer close(queried)
					for goneBack == nil {
						for _, key := range keys {
							asked := time.Since(start).Milliseconds()
							resp, err := http.Get(base + "/query?key=" + url.QueryEscape(key))
							if err != nil {
								return // the gateway closed: the run is over
							}
							var q struct {
								Found bool `json:"found"`
							}
							err = json.NewDecoder(resp.Body).Decode(&q)
							resp.Body.Close()
							if err != nil {
								continue // a 503 while every replica is down
							}
							answers++
							if tc.lagging > 0 && asked > tc.lagging+100 {
								lagged++
							}
							if found[key] && !q.Found {
								goneBack = fmt.Errorf("key %s read found, then not found (answer %d)", key, answers)
								break
							}
							found[key] = found[key] || q.Found
						}
					}
				}()
			})
			<-queried
			if submitErr != nil {
				t.Fatal(submitErr)
			}
			if goneBack != nil {
				t.Fatal(goneBack)
			}
			switch {
			case tc.lagging == 0 && err != nil:
				t.Fatal(err)
			case tc.lagging > 0 && (err == nil || !strings.Contains(err.Error(), "timed out before")):
				t.Fatalf("run ended with %v, want the wall-clock timeout of a shard that cannot finalize", err)
			case tc.lagging > 0 && lagged == 0:
				t.Fatalf("no answer while only the relaunched replica was live (%d answers)", answers)
			}
			for _, key := range keys {
				if !found[key] {
					t.Errorf("key %s never read found in %d answers", key, answers)
				}
			}
		})
	}
}

// TestShortfallSharded checks that the progress rule reads a sharded result
// by its shards: each shard must reach workload.slots and commit an anchor
// epoch. A sharded result has no per-node finalized slots, so a rule that
// read those would pass every sharded run.
func TestShortfallSharded(t *testing.T) {
	sc := Scenario{Protocol: TetraBFTMulti, Shards: &ShardsSpec{Count: 2}, Workload: WorkloadSpec{Slots: 10}}
	d, _ := Lookup(sc.Protocol)
	for _, tc := range []struct {
		name   string
		shards []ShardResult
		want   string
	}{
		{"every shard done", []ShardResult{{Shard: 0, Finalized: 10, AnchorEpochs: 2}, {Shard: 1, Finalized: 12, AnchorEpochs: 1}}, ""},
		{"a lagging shard", []ShardResult{{Shard: 0, Finalized: 10, AnchorEpochs: 2}, {Shard: 1, Finalized: 7, AnchorEpochs: 1}},
			"shard 1 finalized 7/10 slots by t=900"},
		{"a shard without an epoch", []ShardResult{{Shard: 0, Finalized: 10}, {Shard: 1, Finalized: 10, AnchorEpochs: 1}},
			"shard 0 committed no anchor epoch by t=900"},
	} {
		res := &Result{FinishedAt: 900, Shards: tc.shards}
		if got := d.Shortfall(sc, res); got != tc.want {
			t.Errorf("%s: Shortfall = %q, want %q", tc.name, got, tc.want)
		}
	}
}
