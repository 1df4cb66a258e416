package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"tetrabft/internal/scenario"
	"tetrabft/internal/types"
)

// TestGeneratorProducesValidScenarios pins the fuzzer's core contract: the
// sampling envelope only emits specs that validate. (Fuzz fails loudly on a
// generator bug; this covers a wider sample than one campaign.)
func TestGeneratorProducesValidScenarios(t *testing.T) {
	cfg := FuzzConfig{
		MaxNodes: 9,
		Protocols: []scenario.Protocol{
			scenario.TetraBFT, scenario.TetraBFTMulti, scenario.ITHotStuff,
			scenario.ITHotStuffBlog, scenario.PBFT, scenario.PBFTUnbounded,
		},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		sc := generate(rng, cfg)
		if err := sc.Validate(); err != nil {
			data, _ := sc.MarshalIndent()
			t.Fatalf("generated spec %d is invalid: %v\n%s", i, err, data)
		}
	}
}

// TestFuzzCleanCampaign runs a campaign against the correct protocols: the
// envelope never exceeds the fault budget, always heals partitions and
// computes generous horizons, so every finding would be a real bug — and
// there must be none.
func TestFuzzCleanCampaign(t *testing.T) {
	rep, err := Fuzz(FuzzConfig{Seed: 1, Runs: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		data, _ := f.Scenario.MarshalIndent()
		t.Errorf("correct protocol failed (%s: %s):\n%s", f.Kind, f.Detail, data)
	}
}

// TestFuzzDeterministic pins reproducibility: the same config produces the
// same campaign, byte for byte — findings, shrunken reproducers and all.
func TestFuzzDeterministic(t *testing.T) {
	cfg := FuzzConfig{
		Seed: 3, Runs: 20,
		Protocols: []scenario.Protocol{scenario.TetraBFT},
		Mutations: []scenario.Mutation{scenario.MutationNone, scenario.MutationSkipRule3},
	}
	run := func() []byte {
		rep, err := Fuzz(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Errorf("two identical campaigns differ:\n%s\nvs\n%s", a, b)
	}
}

// TestFuzzFindsAndShrinksAgreementViolation is the teeth test: against the
// deliberately broken skip-rule-3 variant, a seeded campaign must find an
// agreement violation and shrink it to a minimal spec that still reproduces
// the violation standalone — after a JSON round trip, exactly as a user
// would replay the written file.
func TestFuzzFindsAndShrinksAgreementViolation(t *testing.T) {
	rep, err := Fuzz(FuzzConfig{
		Seed: 1, Runs: 25,
		Protocols: []scenario.Protocol{scenario.TetraBFT},
		Mutations: []scenario.Mutation{scenario.MutationSkipRule3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var found *Failure
	for i := range rep.Failures {
		if rep.Failures[i].Kind == FailAgreement {
			found = &rep.Failures[i]
			break
		}
	}
	if found == nil {
		t.Fatal("campaign against skip-rule-3 found no agreement violation")
	}

	// The reproducer is minimal: the smallest cluster, no network regime,
	// and only the load-bearing ingredients left.
	sc := found.Scenario
	if sc.Nodes != 4 {
		t.Errorf("shrunken cluster = %d nodes, want 4", sc.Nodes)
	}
	if sc.Mutation != scenario.MutationSkipRule3 {
		t.Errorf("shrunken spec lost the mutation (%q)", sc.Mutation)
	}
	if len(sc.Faults) > 2 {
		t.Errorf("shrunken spec keeps %d faults, want at most the attack pair", len(sc.Faults))
	}
	if sc.Network.GST != 0 || sc.Network.Delay != nil {
		t.Errorf("shrunken spec keeps a network regime: %+v", sc.Network)
	}

	// Standalone reproduction through the public JSON path.
	data, err := sc.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := scenario.Parse(data)
	if err != nil {
		t.Fatalf("shrunken spec does not parse: %v\n%s", err, data)
	}
	if _, err := scenario.Run(parsed); !errors.Is(err, scenario.ErrAgreement) {
		t.Errorf("shrunken spec does not reproduce the violation standalone: %v\n%s", err, data)
	}

	// Dropping any remaining fault makes the violation disappear — the
	// reproducer is locally minimal, not just small.
	for i := range sc.Faults {
		cand := sc
		cand.Faults = append(append([]scenario.FaultSpec(nil), sc.Faults[:i]...), sc.Faults[i+1:]...)
		if cand.Validate() != nil {
			continue
		}
		if k, _ := classify(cand); k == FailAgreement {
			t.Errorf("dropping fault %d still violates agreement; shrink left a removable ingredient", i)
		}
	}
}

// TestShrinkStripsIrrelevantIngredients hand-builds a failing spec padded
// with ingredients the violation does not need — a bigger cluster, a lossy
// prefix, a delay model, an extra silent node — and requires shrink to
// strip all of them while keeping the failure kind.
func TestShrinkStripsIrrelevantIngredients(t *testing.T) {
	padded := scenario.Scenario{
		Protocol:      scenario.TetraBFT,
		Nodes:         7,
		Seed:          42,
		Delta:         20,
		TimeoutFactor: 12,
		Mutation:      scenario.MutationSkipRule3,
		Network: scenario.NetworkSpec{
			Delay: &scenario.DelaySpec{Model: scenario.DelayConstant, D: 1},
		},
		Faults: []scenario.FaultSpec{
			{Type: scenario.FaultStarveDecision, Node: 0, To: 100},
			{Type: scenario.FaultForgedHistory, Node: 1, View: 1, ValueA: "b"},
			{Type: scenario.FaultSilent, Node: 6},
		},
		Stop: scenario.StopSpec{Horizon: 8000, AllDecided: true},
	}
	kind, _ := classify(padded)
	if kind != FailAgreement {
		t.Fatalf("padded spec classifies as %q, want agreement", kind)
	}
	shrunk, steps := shrink(padded, FailAgreement)
	if steps == 0 {
		t.Fatal("shrink made no progress on a padded spec")
	}
	if k, _ := classify(shrunk); k != FailAgreement {
		t.Fatalf("shrunk spec classifies as %q, lost the failure", k)
	}
	if shrunk.Nodes != 4 {
		t.Errorf("nodes = %d, want 4", shrunk.Nodes)
	}
	if len(shrunk.Faults) != 2 {
		t.Errorf("faults = %d (%+v), want the attack pair only", len(shrunk.Faults), shrunk.Faults)
	}
	if shrunk.Network.Delay != nil || shrunk.Delta != 0 || shrunk.TimeoutFactor != 0 || shrunk.Seed != 1 {
		t.Errorf("shrunk spec keeps irrelevant parameters: %+v", shrunk)
	}
}

// TestFuzzRejectsBadPools pins that a typo'd protocol or mutation pool is
// reported as a config error up front, not as a generator bug mid-campaign.
func TestFuzzRejectsBadPools(t *testing.T) {
	if _, err := Fuzz(FuzzConfig{Protocols: []scenario.Protocol{"tetrabftt"}}); err == nil ||
		!strings.Contains(err.Error(), "protocol pool") {
		t.Errorf("bad protocol pool: err = %v", err)
	}
	if _, err := Fuzz(FuzzConfig{Mutations: []scenario.Mutation{"skip-rule-4"}}); err == nil ||
		!strings.Contains(err.Error(), "mutation pool") {
		t.Errorf("bad mutation pool: err = %v", err)
	}
}

// TestFuzzRejectsProtocolsOutsideEnvelope pins that a chained protocol, or
// one without views, is refused up front by one named error read from its
// row — not by validation of a field the user never wrote (pbft-multi's
// workload.slots), and not as stalls the envelope's view-change assumption
// makes (Li et al. after a silent leader).
func TestFuzzRejectsProtocolsOutsideEnvelope(t *testing.T) {
	for _, tc := range []struct {
		proto scenario.Protocol
		want  string
	}{
		{scenario.PBFTMulti, `sweep: fuzz protocol pool: protocol "pbft-multi" is outside the fuzz envelope: it chains single-shot "pbft" runs; fuzz "pbft"`},
		{scenario.ITHotStuffMulti, `sweep: fuzz protocol pool: protocol "it-hotstuff-multi" is outside the fuzz envelope: it chains single-shot "it-hotstuff" runs; fuzz "it-hotstuff"`},
		{scenario.LiConsensus, `sweep: fuzz protocol pool: protocol "liconsensus" is outside the fuzz envelope: it has no view change to recover through`},
	} {
		_, err := Fuzz(FuzzConfig{Runs: 5, Protocols: []scenario.Protocol{scenario.TetraBFT, tc.proto}})
		if !errors.Is(err, ErrOutsideEnvelope) || err.Error() != tc.want {
			t.Errorf("pool with %q: err = %v, want %q", tc.proto, err, tc.want)
		}
	}
}

// TestFuzzStallDetection pins the stall classifier: a spec that cannot
// decide before its horizon (an unhealed partition) is reported as a stall,
// not silently passed.
func TestFuzzStallDetection(t *testing.T) {
	sc := scenario.Scenario{
		Nodes: 4,
		Faults: []scenario.FaultSpec{{
			Type:   scenario.FaultPartition,
			Groups: [][]types.NodeID{{0, 1}, {2, 3}},
		}},
		Stop: scenario.StopSpec{Horizon: 400},
	}
	kind, detail := classify(sc)
	if kind != FailStall {
		t.Fatalf("classify = %q (%s), want stall", kind, detail)
	}
}

// TestGeneratorSamplesWidenedEnvelope pins that the widened envelope is
// actually sampled: across a modest draw count the generator emits sharded
// topologies, asymmetric per-link delay models, and partition chains.
func TestGeneratorSamplesWidenedEnvelope(t *testing.T) {
	cfg := FuzzConfig{
		MaxNodes:  7,
		Protocols: []scenario.Protocol{scenario.TetraBFT, scenario.TetraBFTMulti},
	}
	rng := rand.New(rand.NewSource(11))
	var sharded, perLink, chains int
	for i := 0; i < 400; i++ {
		sc := generate(rng, cfg)
		if sc.Shards != nil {
			sharded++
			if sc.Nodes != 0 {
				t.Fatalf("sharded spec %d sets flat nodes too", i)
			}
		}
		if d := sc.Network.Delay; d != nil && d.Model == scenario.DelayPerLink {
			perLink++
		}
		parts := 0
		for _, f := range sc.Faults {
			if f.Type == scenario.FaultPartition {
				parts++
			}
		}
		if parts > 1 {
			chains++
		}
	}
	if sharded == 0 || perLink == 0 || chains == 0 {
		t.Fatalf("envelope not sampled: sharded=%d per-link=%d partition-chains=%d", sharded, perLink, chains)
	}
}

// TestShrinkSharded pins shrinking on sharded specs. The padded spec stalls
// only because its anchor interval (5000 ticks) exceeds the horizon — the
// shards finalize their slots, but no anchor epoch ever commits. Shrink
// must keep the service layer (the flat-cluster candidate passes, so it is
// rejected), reduce the shard count to 1, keep the load-bearing anchor
// interval, and never alias the original's ShardsSpec pointer.
func TestShrinkSharded(t *testing.T) {
	padded := scenario.Scenario{
		Protocol: scenario.TetraBFTMulti,
		Seed:     42,
		Shards:   &scenario.ShardsSpec{Count: 2, AnchorInterval: 5000, CrossMix: 0.2},
		Workload: scenario.WorkloadSpec{
			Slots: 4, BatchSize: 8, TxRate: 10000, TxCount: 10, Window: 2,
		},
		Stop: scenario.StopSpec{Horizon: 200},
	}
	kind, detail := classify(padded)
	if kind != FailStall || !strings.Contains(detail, "anchor") {
		t.Fatalf("padded spec classifies as %q (%s), want an anchor stall", kind, detail)
	}
	shrunk, steps := shrink(padded, FailStall)
	if steps == 0 {
		t.Fatal("shrink made no progress on a padded sharded spec")
	}
	if k, _ := classify(shrunk); k != FailStall {
		t.Fatalf("shrunk spec classifies as %q, lost the failure", k)
	}
	if shrunk.Shards == nil {
		t.Fatal("shrink dropped the service layer even though the stall needs it")
	}
	if shrunk.Shards.Count != 1 {
		t.Errorf("shrunk shard count = %d, want 1", shrunk.Shards.Count)
	}
	if shrunk.Shards.AnchorInterval != 5000 {
		t.Errorf("shrunk spec lost the load-bearing anchor interval: %+v", shrunk.Shards)
	}
	if padded.Shards.Count != 2 || padded.Shards.AnchorInterval != 5000 {
		t.Errorf("shrink mutated the original spec through the shared pointer: %+v", padded.Shards)
	}
}
