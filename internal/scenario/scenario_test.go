package scenario

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/sim"
	"tetrabft/internal/types"
)

// TestValidation rejects malformed specs with a diagnosable error.
func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		want string // the exact error text
	}{
		{"unknown protocol", Scenario{Protocol: "raft", Nodes: 4}, "scenario: unknown protocol \"raft\""},
		{"unknown engine", Scenario{Nodes: 4, Engine: "quantum"}, "scenario: unknown engine \"quantum\""},
		{"no cluster", Scenario{}, "scenario: cluster size missing (set nodes or a quorum spec)"},
		{"nodes above the bound", Scenario{Nodes: 4097}, "scenario: nodes = 4097 above the 4096-node bound"},
		{"nodes near 1e9", Scenario{Nodes: 999_999_999}, "scenario: nodes = 999999999 above the 4096-node bound"},
		{"shards above the bound", Scenario{Protocol: TetraBFTMulti, Shards: &ShardsSpec{Count: 16, NodesPerShard: 256}},
			"scenario: shards.count × nodes_per_shard + anchor_nodes = 16 × 256 + 4 exceeds the 4096-node bound"},
		{"shard size near 1e9", Scenario{Protocol: TetraBFTMulti, Shards: &ShardsSpec{Count: 2, NodesPerShard: 999_999_999}},
			"scenario: shards.count × nodes_per_shard + anchor_nodes = 2 × 999999999 + 4 exceeds the 4096-node bound"},
		{"anchor size near 1e9", Scenario{Protocol: TetraBFTMulti, Shards: &ShardsSpec{Count: 1, AnchorNodes: 999_999_999}},
			"scenario: shards.count × nodes_per_shard + anchor_nodes = 1 × 4 + 999999999 exceeds the 4096-node bound"},
		{"negative seed", Scenario{Nodes: 4, Seed: -1}, "scenario: negative seed -1"},
		{"bad drop", Scenario{Nodes: 4, Network: NetworkSpec{DropBeforeGST: 1.5}}, "scenario: drop_before_gst = 1.5 outside [0, 1]"},
		{"drop without gst", Scenario{Nodes: 4, Network: NetworkSpec{DropBeforeGST: 0.9}}, "scenario: drop_before_gst = 0.9 without gst drops nothing (set network.gst)"},
		{"bad delay model", Scenario{Nodes: 4, Network: NetworkSpec{Delay: &DelaySpec{Model: "warp"}}}, "scenario: unknown delay model \"warp\""},
		{"negative delay", Scenario{Nodes: 4, Network: NetworkSpec{Delay: &DelaySpec{
			Model: DelayConstant, D: -5,
		}}}, "scenario: negative delay"},
		{"negative link delay", Scenario{Nodes: 4, Network: NetworkSpec{Delay: &DelaySpec{
			Model: DelayPerLink, Default: 1, Links: []LinkDelaySpec{{From: 0, To: 1, D: -2}},
		}}}, "scenario: negative delay on link 0→1"},
		{"per-link non-member", Scenario{Nodes: 4, Network: NetworkSpec{Delay: &DelaySpec{
			Model: DelayPerLink, Links: []LinkDelaySpec{{From: 0, To: 9, D: 2}},
		}}}, "scenario: per-link delay names non-member link 0→9"},
		{"unknown fault", Scenario{Nodes: 4, Faults: []FaultSpec{{Type: "gremlin"}}}, "scenario: unknown fault type \"gremlin\""},
		{"fault non-member", Scenario{Nodes: 4, Faults: []FaultSpec{{Type: FaultSilent, Node: 7}}}, "scenario: silent fault targets non-member node 7"},
		{"fault shard on a flat run", Scenario{Nodes: 4, Faults: []FaultSpec{{Type: FaultSilent, Shard: 3}}}, "scenario: silent fault targets shard 3 outside [0, 1)"},
		{"two faults one node", Scenario{Nodes: 4, Faults: []FaultSpec{
			{Type: FaultSilent, Node: 0}, {Type: FaultRandom, Node: 0},
		}}, "scenario: node 0 has two node-replacing faults"},
		{"partition no groups", Scenario{Nodes: 4, Faults: []FaultSpec{{Type: FaultPartition}}}, "scenario: partition fault declares no groups"},
		{"partition non-member", Scenario{Nodes: 4, Faults: []FaultSpec{{
			Type: FaultPartition, Groups: [][]types.NodeID{{0, 9}},
		}}}, "scenario: partition group names non-member node 9"},
		{"partition overlapping groups", Scenario{Nodes: 4, Faults: []FaultSpec{{
			Type: FaultPartition, Groups: [][]types.NodeID{{0, 1}, {1, 2}},
		}}}, "scenario: node 1 appears in two partition groups"},
		{"partition empty window", Scenario{Nodes: 4, Faults: []FaultSpec{{
			Type: FaultPartition, Groups: [][]types.NodeID{{0}, {1}}, From: 10, To: 5,
		}}}, "scenario: partition window [10, 5) is empty"},
		{"all faulty", Scenario{Nodes: 1, Faults: []FaultSpec{{Type: FaultSilent, Node: 0}}}, "scenario: every node is faulty"},
		{"slices on pbft", Scenario{Protocol: PBFT, Quorum: &QuorumSpec{
			Slices: []SliceSpec{{Node: 0, Slices: [][]types.NodeID{{0}}}},
		}}, "scenario: protocol \"pbft\" does not support quorum slices"},
		{"nodes vs quorum mismatch", Scenario{Nodes: 3, Quorum: &QuorumSpec{
			Slices: []SliceSpec{{Node: 0, Slices: [][]types.NodeID{{0}}}},
		}}, "scenario: nodes = 3 but the quorum spec names 1 members"},
		{"duplicate slice decl", Scenario{Quorum: &QuorumSpec{Slices: []SliceSpec{
			{Node: 0, Slices: [][]types.NodeID{{0}}},
			{Node: 0, Slices: [][]types.NodeID{{0}}},
		}}}, "scenario: node 0 declares slices twice"},
		{"txs on single-shot", Scenario{Nodes: 4, Workload: WorkloadSpec{
			Transactions: []TxSpec{{Node: 0, Op: "set", Key: "k"}},
		}}, "scenario: slots/max_slot/transactions/tx_count/arrival/window require a multi-shot protocol"},
		{"bad tx op", Scenario{Protocol: TetraBFTMulti, Nodes: 4, Workload: WorkloadSpec{
			Slots: 2, Transactions: []TxSpec{{Node: 0, Op: "swap", Key: "k"}},
		}}, "scenario: unknown transaction op \"swap\" (want set or del)"},
		{"all-decided without slots", Scenario{Protocol: TetraBFTMulti, Nodes: 4,
			Stop: StopSpec{AllDecided: true}}, "scenario: stop.all_decided on a multi-shot run needs workload.slots"},
		{"tcp single-shot", Scenario{Engine: EngineTCP, Nodes: 4}, "scenario: engine \"tcp\" supports only protocol \"tetrabft-multi\""},
		{"tcp with byzantine", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Faults:   []FaultSpec{{Type: FaultEquivocator, Node: 0}}}, "scenario: engine \"tcp\" supports only silent node faults"},
		{"tcp with message adversary", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Faults:   []FaultSpec{{Type: FaultSuppressFinalPhase}}}, "scenario: engine \"tcp\" supports only partition network faults, not \"suppress-final-phase\""},
		{"tcp without slots", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti, Nodes: 4}, "scenario: engine \"tcp\" needs workload.slots"},
		{"tcp with per-link delay", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Network: NetworkSpec{Delay: &DelaySpec{Model: DelayPerLink,
				Links: []LinkDelaySpec{{From: 0, To: 1, D: 2}}}}}, "scenario: engine \"tcp\" does not support per-link delays"},
		{"tcp with event budget", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Network:  NetworkSpec{EventBudget: 100}}, "scenario: engine \"tcp\" has no event budget"},
		{"crash-restart on sim", Scenario{Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Faults:   []FaultSpec{{Type: FaultCrashRestart, Node: 0, CrashAtMS: 50}}},
			"scenario: crash-restart requires engine \"tcp\" (the simulator has no processes to kill)"},
		{"crash-restart restart before crash", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti,
			Nodes: 4, Workload: WorkloadSpec{Slots: 2},
			Faults: []FaultSpec{{Type: FaultCrashRestart, Node: 0, CrashAtMS: 100, RestartAtMS: 50}}},
			"scenario: node 0 restarts at 50ms, before its crash at 100ms"},
		{"crash-restart twice on one node", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti,
			Nodes: 4, Workload: WorkloadSpec{Slots: 2},
			Faults: []FaultSpec{
				{Type: FaultCrashRestart, Node: 0, CrashAtMS: 50, RestartAtMS: 100},
				{Type: FaultCrashRestart, Node: 0, CrashAtMS: 200},
			}}, "scenario: node 0 has two crash-restart faults"},
		{"duplicate on sim", Scenario{Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Network:  NetworkSpec{Duplicate: 0.1}}, "scenario: network.duplicate applies only to engine \"tcp\""},
		{"duplicate out of range", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Network:  NetworkSpec{Duplicate: 1.5}}, "scenario: network.duplicate = 1.5 outside [0, 1)"},
		{"tcp with horizon", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Stop:     StopSpec{Horizon: 100}}, "scenario: engine \"tcp\" stops on workload.slots + stop.wall_clock_ms only"},
		{"unknown mutation", Scenario{Nodes: 4, Mutation: "skip-rule-4"}, "scenario: unknown mutation \"skip-rule-4\""},
		{"mutation on pbft", Scenario{Protocol: PBFT, Nodes: 4, Mutation: MutationSkipRule3},
			"scenario: mutation \"skip-rule-3\" applies only to protocol \"tetrabft\""},
		{"starve-decision non-member", Scenario{Nodes: 4, Faults: []FaultSpec{{
			Type: FaultStarveDecision, Node: 9,
		}}}, "scenario: starve-decision spares non-member node 9"},
		{"starve-decision negative window", Scenario{Nodes: 4, Faults: []FaultSpec{{
			Type: FaultStarveDecision, Node: 0, To: -1,
		}}}, "scenario: starve-decision to is negative"},
		{"forged-history non-member", Scenario{Nodes: 4, Faults: []FaultSpec{{
			Type: FaultForgedHistory, Node: 9,
		}}}, "scenario: forged-history fault targets non-member node 9"},
		{"forged-history negative view", Scenario{Nodes: 4, Faults: []FaultSpec{{
			Type: FaultForgedHistory, Node: 1, View: -1,
		}}}, "scenario: forged-history view is negative"},
		{"starve-decision on it-hotstuff", Scenario{Protocol: ITHotStuff, Nodes: 4,
			Faults: []FaultSpec{{Type: FaultStarveDecision, Node: 0}}},
			"scenario: starve-decision applies only to protocols \"tetrabft\", \"pbft\" and \"pbft-unbounded\""},
		{"forged-history on pbft", Scenario{Protocol: PBFT, Nodes: 4,
			Faults: []FaultSpec{{Type: FaultForgedHistory, Node: 1}}},
			"scenario: forged-history applies only to protocol \"tetrabft\""},
		{"equivocator on tetrabft-multi", Scenario{Protocol: TetraBFTMulti, Nodes: 4,
			Faults: []FaultSpec{{Type: FaultEquivocator, Node: 0}}},
			"scenario: equivocator applies only to protocol \"tetrabft\""},
		{"random on pbft", Scenario{Protocol: PBFT, Nodes: 4,
			Faults: []FaultSpec{{Type: FaultRandom, Node: 0}}},
			"scenario: random applies only to protocol \"tetrabft\""},
		{"quorum without slices", Scenario{Quorum: &QuorumSpec{}}, "scenario: quorum spec declares no slices"},
		{"suppress-proposals negative view", Scenario{Nodes: 4, Faults: []FaultSpec{{
			Type: FaultSuppressProposals, BelowView: -1,
		}}}, "scenario: suppress-proposals below_view is negative"},
		{"tx non-member", Scenario{Protocol: TetraBFTMulti, Nodes: 4, Workload: WorkloadSpec{
			Slots: 2, Transactions: []TxSpec{{Node: 9, Op: "set", Key: "k"}},
		}}, "scenario: transaction targets non-member node 9"},
		{"tx faulty node", Scenario{Protocol: TetraBFTMulti, Nodes: 4,
			Faults: []FaultSpec{{Type: FaultSilent, Node: 0}},
			Workload: WorkloadSpec{
				Slots: 2, Transactions: []TxSpec{{Node: 0, Op: "set", Key: "k"}},
			}}, "scenario: transaction targets faulty node 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sc.Validate()
			if err == nil {
				t.Fatalf("spec accepted, want error %q", tc.want)
			}
			if err.Error() != tc.want {
				t.Errorf("error %q, want %q", err, tc.want)
			}
		})
	}
}

// TestParseStrict rejects unknown JSON fields — typos in a spec file must
// not silently become default values.
func TestParseStrict(t *testing.T) {
	if _, err := Parse([]byte(`{"nodes": 4, "protcol": "tetrabft"}`)); err == nil {
		t.Error("misspelled field accepted")
	}
	if _, err := Parse([]byte(`{"nodes": 4`)); err == nil {
		t.Error("truncated JSON accepted")
	}
	sc, err := Parse([]byte(`{"protocol": "tetrabft", "nodes": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Nodes != 4 {
		t.Errorf("nodes = %d, want 4", sc.Nodes)
	}
}

// TestByzantineFaultsMoveRuns: every Byzantine fault a row accepts is heard
// — what the honest nodes do (what and when they decide, and the bytes each
// of them sends) differs from what they do beside a silent node in the same
// spec — so no accepted fault is a crash under another name. The
// equivocator and the babbler replace the view-0 leader. The forged-history
// leader attacks view 1 behind a starved view-0 decision, as the fuzzer
// schedules it; a correct protocol's Rule 3 turns its forgery away without
// a trace, so that check skips Rule 3 and the forgery breaks agreement.
func TestByzantineFaultsMoveRuns(t *testing.T) {
	honest := func(sc Scenario) string {
		res, err := Run(sc) // an agreement violation is a difference too
		if res == nil {
			t.Fatal(err)
		}
		faulty := sc.Faults[len(sc.Faults)-1].Node
		var sent []int64
		for _, n := range res.Traffic {
			if n.Node != faulty {
				sent = append(sent, n.Sent)
			}
		}
		return fmt.Sprint(res.Decisions, res.Chain, res.LastDecisionAt, sent, err)
	}
	heard := func(row Protocol, ft FaultType) bool {
		sc := Scenario{Protocol: row, Nodes: 4, Stop: StopSpec{Horizon: 2000}, Collect: CollectSpec{Chain: true}}
		fault := FaultSpec{Type: ft, Node: 0}
		if ft == FaultForgedHistory {
			fault.Node, fault.View, sc.Mutation = 1, 1, MutationSkipRule3
			sc.Faults = []FaultSpec{{Type: FaultStarveDecision, Node: 0, To: 50}}
		}
		silent := sc
		silent.Faults = append(slices.Clip(sc.Faults), FaultSpec{Type: FaultSilent, Node: fault.Node})
		sc.Faults = append(slices.Clip(sc.Faults), fault)
		return honest(sc) != honest(silent)
	}
	accepted := 0
	for _, d := range table {
		for _, ft := range byzantineFaults {
			if d.Byzantine(ft) {
				accepted++
				if !heard(d.Name, ft) {
					t.Errorf("%s: beside a %s node the honest nodes do what they do beside a silent one", d.Name, ft)
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no row accepts a Byzantine fault")
	}
	// The check has teeth: with the refusal lifted, the faults found silent
	// on tetrabft-multi, pbft and it-hotstuff are silent here too.
	for i, d := range table {
		if d.Name != TetraBFTMulti && d.Name != PBFT && d.Name != ITHotStuff {
			continue
		}
		table[i].byzantine = byzantineFaults
		for _, ft := range []FaultType{FaultEquivocator, FaultRandom} {
			if heard(d.Name, ft) {
				t.Errorf("%s: a %s node moved the honest nodes, though the row does not read its messages", d.Name, ft)
			}
		}
		table[i].byzantine = d.byzantine
	}
}

// TestAllDecidedStops checks the stop condition fires as soon as every
// honest node has decided, instead of draining the timer queue.
func TestAllDecidedStops(t *testing.T) {
	res, err := Run(Scenario{
		Nodes: 4,
		Stop:  StopSpec{Horizon: 100000, AllDecided: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DecidedCount != 4 {
		t.Fatalf("decided = %d, want 4", res.DecidedCount)
	}
	if res.FinishedAt != 5 {
		t.Errorf("stopped at t=%d, want 5 (the last decision)", res.FinishedAt)
	}
}

// TestBaselinesReportViewChange checks that every single-shot node with
// views reports them: a silent first leader forces each baseline through a
// view change, and MaxView must show it. Li et al. has no views and stays 0.
func TestBaselinesReportViewChange(t *testing.T) {
	for _, proto := range []Protocol{PBFT, PBFTUnbounded, ITHotStuff, ITHotStuffBlog, LiConsensus} {
		t.Run(string(proto), func(t *testing.T) {
			res, err := Run(Scenario{
				Protocol: proto, Nodes: 4,
				Faults: []FaultSpec{{Type: FaultSilent, Node: 0}},
				Stop:   StopSpec{Horizon: 4000},
			})
			if err != nil {
				t.Fatal(err)
			}
			if proto == LiConsensus {
				if res.MaxView != 0 {
					t.Errorf("max view %d on a protocol without views", res.MaxView)
				}
			} else if res.MaxView < 1 {
				t.Errorf("max view %d after a silent first leader, want ≥ 1", res.MaxView)
			}
		})
	}
}

// TestTimeoutFactorReachesEveryProtocolWithViews checks that timeout_factor
// scales the view timeout of every protocol with views, chained slots
// included: with a silent first leader (n = 4, Δ = 10) the first decision
// waits out one timeout, so doubling the factor from 9 to 18 must move it
// later by 9Δ.
func TestTimeoutFactorReachesEveryProtocolWithViews(t *testing.T) {
	decideAt := func(proto Protocol, factor int) int64 {
		sc := Scenario{
			Protocol: proto, Nodes: 4, Delta: 10, TimeoutFactor: factor,
			Faults: []FaultSpec{{Type: FaultSilent, Node: 0}},
			Stop:   StopSpec{Horizon: 4000},
		}
		if d, _ := Lookup(proto); d.Chains != "" {
			sc.Workload.Slots = 1
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.FirstDecisionAt < 0 {
			t.Fatalf("no decision at timeout_factor %d", factor)
		}
		return res.FirstDecisionAt
	}
	for _, proto := range []Protocol{TetraBFT, PBFT, PBFTUnbounded, ITHotStuff, ITHotStuffBlog, PBFTMulti, ITHotStuffMulti} {
		t.Run(string(proto), func(t *testing.T) {
			if at9, at18 := decideAt(proto, 9), decideAt(proto, 18); at18-at9 != 90 {
				t.Errorf("first decision at t=%d with factor 9 and t=%d with 18, want 9Δ = 90 later", at9, at18)
			}
		})
	}
}

// TestAllDecidedStopsMulti checks the multi-shot form of the stop
// condition: finish when every honest node reaches the slot target.
func TestAllDecidedStopsMulti(t *testing.T) {
	res, err := Run(Scenario{
		Protocol: TetraBFTMulti,
		Nodes:    4,
		Workload: WorkloadSpec{Slots: 5},
		Stop:     StopSpec{Horizon: 100000, AllDecided: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Finalized {
		if f.Slot < 5 {
			t.Errorf("node %d finalized only %d slots", f.Node, f.Slot)
		}
	}
	if res.FinishedAt > 50 {
		t.Errorf("run kept going until t=%d after the slot target", res.FinishedAt)
	}
}

// TestFarReplicaLagsBehind checks the per-link delay model: the distant
// node still decides, later than the tight cluster.
func TestFarReplicaLagsBehind(t *testing.T) {
	sc, ok := ByName("far-replica")
	if !ok {
		t.Fatal("far-replica scenario missing")
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	near, ok1 := res.Decision(0, 0)
	far, ok2 := res.Decision(3, 0)
	if !ok1 || !ok2 {
		t.Fatalf("missing decisions: near %v far %v", ok1, ok2)
	}
	if far.At <= near.At {
		t.Errorf("far replica decided at t=%d, not after the near cluster's t=%d", far.At, near.At)
	}
}

// TestKVWorkloadChain checks that workload transactions flow through
// mempools into finalized blocks and produce the expected replicated state.
func TestKVWorkloadChain(t *testing.T) {
	sc, ok := ByName("kv-workload")
	if !ok {
		t.Fatal("kv-workload scenario missing")
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chain) == 0 {
		t.Fatal("no chain collected")
	}
	kv := blockchain.NewKV()
	for _, b := range res.Chain {
		kv.ApplyBlock(b)
	}
	state := kv.Snapshot()
	if state["alice"] != "100" || state["carol"] != "300" {
		t.Errorf("state = %v, want alice=100 carol=300", state)
	}
	if _, ok := state["bob"]; ok {
		t.Errorf("bob survived the del transaction: %v", state)
	}
}

// TestChainAdversaryComposition checks fault-schedule composition: the
// first drop wins, replacements chain, and extra delays accumulate.
func TestChainAdversaryComposition(t *testing.T) {
	delay := func(d types.Duration) sim.Adversary {
		return adversaryFunc(func(types.Message) sim.Verdict { return sim.Verdict{ExtraDelay: d} })
	}
	replace := func(msg types.Message) sim.Adversary {
		return adversaryFunc(func(types.Message) sim.Verdict { return sim.Verdict{Replace: msg} })
	}
	drop := adversaryFunc(func(types.Message) sim.Verdict { return sim.Verdict{Drop: true} })

	msg := types.Proposal{View: 0, Val: "original"}
	repl := types.Proposal{View: 0, Val: "replaced"}

	v := chainAdversary{delay(2), delay(3)}.Intercept(0, 1, msg, 0)
	if v.Drop || v.ExtraDelay != 5 {
		t.Errorf("delays did not accumulate: %+v", v)
	}
	v = chainAdversary{replace(repl), delay(1)}.Intercept(0, 1, msg, 0)
	if v.Replace == nil || v.Replace.(types.Proposal).Val != "replaced" {
		t.Errorf("replacement lost: %+v", v)
	}
	v = chainAdversary{delay(2), drop}.Intercept(0, 1, msg, 0)
	if !v.Drop {
		t.Errorf("drop did not win: %+v", v)
	}
}

type adversaryFunc func(types.Message) sim.Verdict

func (f adversaryFunc) Intercept(_, _ types.NodeID, msg types.Message, _ types.Time) sim.Verdict {
	return f(msg)
}

// TestErrAgreementTag checks agreement violations are distinguishable from
// operational failures through errors.Is, without losing the detail text.
func TestErrAgreementTag(t *testing.T) {
	inner := fmt.Errorf("node 1 decided %q, node 2 decided %q", "a", "b")
	err := fmt.Errorf("scenario %q: %w", "x", agreementError{inner})
	if !errors.Is(err, ErrAgreement) {
		t.Error("wrapped agreement violation not tagged")
	}
	if !strings.Contains(err.Error(), "node 1 decided") {
		t.Errorf("detail lost: %v", err)
	}
	if errors.Is(fmt.Errorf("scenario %q: %w", "x", sim.ErrEventBudget), ErrAgreement) {
		t.Error("operational failure tagged as agreement violation")
	}
}

// TestTCPScenario runs the deployment engine end to end on localhost.
func TestTCPScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP run")
	}
	noLeaks(t)
	res, err := Run(Scenario{
		Protocol: TetraBFTMulti,
		Engine:   EngineTCP,
		Nodes:    4,
		Delta:    30,
		Workload: WorkloadSpec{
			Slots:        3,
			Transactions: []TxSpec{{Node: 0, Op: "set", Key: "k", Value: "v"}},
		},
		Collect: CollectSpec{Chain: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chains) != 4 {
		t.Fatalf("chains from %d replicas, want 4", len(res.Chains))
	}
	for _, f := range res.Finalized {
		if f.Slot < 3 {
			t.Errorf("replica %d finalized %d slots, want ≥ 3", f.Node, f.Slot)
		}
	}
}

// lemma8Scenario is the Lemma 8 cross-view attack expressed declaratively:
// node 0 alone decides in view 0 (everyone else is starved of vote-4s), and
// the Byzantine leader of view 1 pushes a conflicting value with a forged
// clean history.
func lemma8Scenario() Scenario {
	return Scenario{
		Protocol: TetraBFT,
		Nodes:    4,
		Faults: []FaultSpec{
			{Type: FaultStarveDecision, Node: 0, To: 50},
			{Type: FaultForgedHistory, Node: 1, View: 1, ValueA: "b"},
		},
		Stop: StopSpec{Horizon: 4000},
	}
}

// TestLemma8ScenarioSafe replays the Lemma 8 attack through the declarative
// API: Rule 3 rejects the forged history and every honest node re-decides
// the view-0 value.
func TestLemma8ScenarioSafe(t *testing.T) {
	res, err := Run(lemma8Scenario())
	if err != nil {
		t.Fatal(err)
	}
	if res.DecidedCount != 3 {
		t.Fatalf("decided = %d, want all 3 honest nodes", res.DecidedCount)
	}
	for _, id := range []types.NodeID{0, 2, 3} {
		d, ok := res.Decision(id, 0)
		if !ok || d.Value != "val-0" {
			t.Errorf("node %d decided %q (ok=%v), want the view-0 value val-0", id, d.Value, ok)
		}
	}
}

// TestLemma8MutationViolates proves the attack (and the fuzzer built on it)
// has teeth: with MutationSkipRule3 the same spec violates agreement and the
// error is tagged ErrAgreement.
func TestLemma8MutationViolates(t *testing.T) {
	sc := lemma8Scenario()
	sc.Mutation = MutationSkipRule3
	_, err := Run(sc)
	if !errors.Is(err, ErrAgreement) {
		t.Fatalf("err = %v, want an ErrAgreement violation", err)
	}
}
