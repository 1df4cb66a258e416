package scenario

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"tetrabft/internal/shard"
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
			"unknown field"},
		{"wrong protocol",
			`{"protocol":"tetrabft","shards":{"count":2},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"shards require protocol"},
		{"default protocol",
			`{"shards":{"count":2},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"shards require protocol"},
		{"nodes and shards",
			`{"protocol":"tetrabft-multi","nodes":4,"shards":{"count":2},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"mutually exclusive"},
		{"quorum slices",
			`{"protocol":"tetrabft-multi","quorum":{"slices":[{"node":0,"slices":[[0]]}]},"shards":{"count":2},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"quorum slices"},
		{"zero count",
			`{"protocol":"tetrabft-multi","shards":{"count":0},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"shards.count"},
		{"count too large",
			`{"protocol":"tetrabft-multi","shards":{"count":17},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"shards.count"},
		{"undersized shard",
			`{"protocol":"tetrabft-multi","shards":{"count":2,"nodes_per_shard":3},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"nodes_per_shard"},
		{"undersized anchor",
			`{"protocol":"tetrabft-multi","shards":{"count":2,"anchor_nodes":3},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"anchor_nodes"},
		{"cross mix out of range",
			`{"protocol":"tetrabft-multi","shards":{"count":2,"cross_mix":1.0},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"cross_mix"},
		{"missing slots",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"stop":{"horizon":4000}}`,
			"workload.slots"},
		{"explicit max_slot",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"workload":{"slots":6,"max_slot":9},"stop":{"horizon":4000}}`,
			"max_slot"},
		{"explicit transactions",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"workload":{"slots":6,"transactions":[{"node":0,"op":"set","key":"k"}]},"stop":{"horizon":4000}}`,
			"offered-load"},
		{"all_decided stop",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"workload":{"slots":6},"stop":{"horizon":4000,"all_decided":true}}`,
			"all_decided"},
		{"sim without horizon",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"workload":{"slots":6}}`,
			"stop.horizon"},
		{"tcp with horizon",
			`{"protocol":"tetrabft-multi","engine":"tcp","shards":{"count":2},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"wall_clock_ms"},
		{"collect chain",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"workload":{"slots":6},"stop":{"horizon":4000},"collect":{"chain":true}}`,
			"do not collect"},
		{"per-link delay",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"network":{"delay":{"model":"per-link","default":1}},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"per-link"},
		{"event budget",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"network":{"event_budget":1000},"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"event budget"},
		{"equivocator fault",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"faults":[{"type":"equivocator","node":0}],"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"only silent and crash-restart"},
		{"fault shard out of range",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"faults":[{"type":"silent","shard":2,"node":0}],"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"outside [0, 2)"},
		{"fault node out of range",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"faults":[{"type":"silent","shard":0,"node":4}],"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"membership"},
		{"crash-restart on sim",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"faults":[{"type":"crash-restart","shard":0,"node":1,"crash_at_ms":100}],"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"crash-restart requires engine"},
		{"duplicate silent fault",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"faults":[{"type":"silent","shard":1,"node":2},{"type":"silent","shard":1,"node":2}],"workload":{"slots":6},"stop":{"horizon":4000}}`,
			"two node-replacing faults"},
		{"mutation",
			`{"protocol":"tetrabft-multi","shards":{"count":2},"mutation":"skip-rule-3","workload":{"slots":6},"stop":{"horizon":4000}}`,
			"mutation"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.spec))
		if err == nil {
			t.Errorf("%s: Parse accepted an invalid sharded spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the problem (want substring %q)", tc.name, err, tc.want)
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

// TestRunCachedBypassesTCP pins the cache contract the TCP engines depend
// on: EngineTCP results carry wall-clock timings and must never be served
// from (or stored into) the deterministic-run cache, while an identical sim
// spec is cached after one run.
func TestRunCachedBypassesTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP runtimes in -short mode")
	}
	noLeaks(t)
	simSpec := Scenario{
		Name: "cache-probe-sim", Protocol: TetraBFTMulti, Nodes: 4,
		Workload: WorkloadSpec{Slots: 3},
		Stop:     StopSpec{Horizon: 3000},
	}
	tcpSpec := Scenario{
		Name: "cache-probe-tcp", Protocol: TetraBFTMulti, Engine: EngineTCP, Nodes: 4,
		Workload: WorkloadSpec{Slots: 3},
		Stop:     StopSpec{WallClockMS: 20000},
	}
	cached := func(sc Scenario) bool {
		key, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		runCache.Lock()
		defer runCache.Unlock()
		_, ok := runCache.m[string(key)]
		return ok
	}
	if _, err := RunCached(simSpec); err != nil {
		t.Fatal(err)
	}
	if !cached(simSpec) {
		t.Error("sim run was not cached")
	}
	if _, err := RunCached(tcpSpec); err != nil {
		t.Fatal(err)
	}
	if cached(tcpSpec) {
		t.Error("EngineTCP run was stored in the deterministic-run cache")
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
