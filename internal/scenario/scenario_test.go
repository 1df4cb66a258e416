package scenario

import (
	"errors"
	"fmt"
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
		want string // substring of the expected error
	}{
		{"unknown protocol", Scenario{Protocol: "raft", Nodes: 4}, "unknown protocol"},
		{"unknown engine", Scenario{Nodes: 4, Engine: "quantum"}, "unknown engine"},
		{"no cluster", Scenario{}, "cluster size missing"},
		{"negative seed", Scenario{Nodes: 4, Seed: -1}, "negative seed"},
		{"bad drop", Scenario{Nodes: 4, Network: NetworkSpec{DropBeforeGST: 1.5}}, "drop_before_gst"},
		{"bad delay model", Scenario{Nodes: 4, Network: NetworkSpec{Delay: &DelaySpec{Model: "warp"}}}, "unknown delay model"},
		{"negative delay", Scenario{Nodes: 4, Network: NetworkSpec{Delay: &DelaySpec{
			Model: DelayConstant, D: -5,
		}}}, "negative delay"},
		{"negative link delay", Scenario{Nodes: 4, Network: NetworkSpec{Delay: &DelaySpec{
			Model: DelayPerLink, Default: 1, Links: []LinkDelaySpec{{From: 0, To: 1, D: -2}},
		}}}, "negative delay"},
		{"per-link non-member", Scenario{Nodes: 4, Network: NetworkSpec{Delay: &DelaySpec{
			Model: DelayPerLink, Links: []LinkDelaySpec{{From: 0, To: 9, D: 2}},
		}}}, "non-member link"},
		{"unknown fault", Scenario{Nodes: 4, Faults: []FaultSpec{{Type: "gremlin"}}}, "unknown fault"},
		{"fault non-member", Scenario{Nodes: 4, Faults: []FaultSpec{{Type: FaultSilent, Node: 7}}}, "non-member"},
		{"two faults one node", Scenario{Nodes: 4, Faults: []FaultSpec{
			{Type: FaultSilent, Node: 0}, {Type: FaultRandom, Node: 0},
		}}, "two node-replacing faults"},
		{"partition no groups", Scenario{Nodes: 4, Faults: []FaultSpec{{Type: FaultPartition}}}, "no groups"},
		{"partition non-member", Scenario{Nodes: 4, Faults: []FaultSpec{{
			Type: FaultPartition, Groups: [][]types.NodeID{{0, 9}},
		}}}, "non-member"},
		{"partition overlapping groups", Scenario{Nodes: 4, Faults: []FaultSpec{{
			Type: FaultPartition, Groups: [][]types.NodeID{{0, 1}, {1, 2}},
		}}}, "two partition groups"},
		{"partition empty window", Scenario{Nodes: 4, Faults: []FaultSpec{{
			Type: FaultPartition, Groups: [][]types.NodeID{{0}, {1}}, From: 10, To: 5,
		}}}, "empty"},
		{"all faulty", Scenario{Nodes: 1, Faults: []FaultSpec{{Type: FaultSilent, Node: 0}}}, "every node is faulty"},
		{"slices on pbft", Scenario{Protocol: PBFT, Quorum: &QuorumSpec{
			Slices: []SliceSpec{{Node: 0, Slices: [][]types.NodeID{{0}}}},
		}}, "does not support quorum slices"},
		{"nodes vs quorum mismatch", Scenario{Nodes: 3, Quorum: &QuorumSpec{
			Slices: []SliceSpec{{Node: 0, Slices: [][]types.NodeID{{0}}}},
		}}, "names 1 members"},
		{"duplicate slice decl", Scenario{Quorum: &QuorumSpec{Slices: []SliceSpec{
			{Node: 0, Slices: [][]types.NodeID{{0}}},
			{Node: 0, Slices: [][]types.NodeID{{0}}},
		}}}, "twice"},
		{"txs on single-shot", Scenario{Nodes: 4, Workload: WorkloadSpec{
			Transactions: []TxSpec{{Node: 0, Op: "set", Key: "k"}},
		}}, "multi-shot"},
		{"bad tx op", Scenario{Protocol: TetraBFTMulti, Nodes: 4, Workload: WorkloadSpec{
			Slots: 2, Transactions: []TxSpec{{Node: 0, Op: "swap", Key: "k"}},
		}}, "unknown transaction op"},
		{"all-decided without slots", Scenario{Protocol: TetraBFTMulti, Nodes: 4,
			Stop: StopSpec{AllDecided: true}}, "needs workload.slots"},
		{"tcp single-shot", Scenario{Engine: EngineTCP, Nodes: 4}, "supports only protocol"},
		{"tcp with byzantine", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Faults:   []FaultSpec{{Type: FaultEquivocator, Node: 0}}}, "only silent node faults"},
		{"tcp with message adversary", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Faults:   []FaultSpec{{Type: FaultSuppressFinalPhase}}}, "only partition network faults"},
		{"tcp without slots", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti, Nodes: 4}, "needs workload.slots"},
		{"tcp with per-link delay", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Network: NetworkSpec{Delay: &DelaySpec{Model: DelayPerLink,
				Links: []LinkDelaySpec{{From: 0, To: 1, D: 2}}}}}, "per-link"},
		{"tcp with event budget", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Network:  NetworkSpec{EventBudget: 100}}, "event budget"},
		{"crash-restart on sim", Scenario{Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Faults:   []FaultSpec{{Type: FaultCrashRestart, Node: 0, CrashAtMS: 50}}},
			"requires engine"},
		{"crash-restart restart before crash", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti,
			Nodes: 4, Workload: WorkloadSpec{Slots: 2},
			Faults: []FaultSpec{{Type: FaultCrashRestart, Node: 0, CrashAtMS: 100, RestartAtMS: 50}}},
			"before its crash"},
		{"crash-restart twice on one node", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti,
			Nodes: 4, Workload: WorkloadSpec{Slots: 2},
			Faults: []FaultSpec{
				{Type: FaultCrashRestart, Node: 0, CrashAtMS: 50, RestartAtMS: 100},
				{Type: FaultCrashRestart, Node: 0, CrashAtMS: 200},
			}}, "two crash-restart"},
		{"duplicate on sim", Scenario{Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Network:  NetworkSpec{Duplicate: 0.1}}, "applies only to engine"},
		{"duplicate out of range", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Network:  NetworkSpec{Duplicate: 1.5}}, "duplicate"},
		{"tcp with horizon", Scenario{Engine: EngineTCP, Protocol: TetraBFTMulti, Nodes: 4,
			Workload: WorkloadSpec{Slots: 2},
			Stop:     StopSpec{Horizon: 100}}, "wall_clock_ms"},
		{"unknown mutation", Scenario{Nodes: 4, Mutation: "skip-rule-4"}, "unknown mutation"},
		{"mutation on pbft", Scenario{Protocol: PBFT, Nodes: 4, Mutation: MutationSkipRule3},
			"applies only to protocol"},
		{"starve-decision non-member", Scenario{Nodes: 4, Faults: []FaultSpec{{
			Type: FaultStarveDecision, Node: 9,
		}}}, "non-member"},
		{"starve-decision negative window", Scenario{Nodes: 4, Faults: []FaultSpec{{
			Type: FaultStarveDecision, Node: 0, To: -1,
		}}}, "negative"},
		{"forged-history non-member", Scenario{Nodes: 4, Faults: []FaultSpec{{
			Type: FaultForgedHistory, Node: 9,
		}}}, "non-member"},
		{"forged-history negative view", Scenario{Nodes: 4, Faults: []FaultSpec{{
			Type: FaultForgedHistory, Node: 1, View: -1,
		}}}, "negative"},
		{"starve-decision on it-hotstuff", Scenario{Protocol: ITHotStuff, Nodes: 4,
			Faults: []FaultSpec{{Type: FaultStarveDecision, Node: 0}}},
			"applies only to protocols"},
		{"forged-history on pbft", Scenario{Protocol: PBFT, Nodes: 4,
			Faults: []FaultSpec{{Type: FaultForgedHistory, Node: 1}}},
			"applies only to protocol"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sc.Validate()
			if err == nil {
				t.Fatalf("spec accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
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
