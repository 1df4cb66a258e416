package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tetrabft/internal/types"
	"tetrabft/internal/workload"
)

var update = flag.Bool("update", false, "regenerate testdata golden files")

// goldenRun pins one named scenario × seed to its full observable behavior:
// decided chains (block IDs per node), decision times, event and byte
// counts. The fixture was generated by the pre-refactor (map-of-maps)
// multishot engine; the flattened slot-window engine at its defaults
// (batch disabled, window 1) must reproduce every field exactly —
// action-for-action identical runs, not just matching final chains.
type goldenRun struct {
	Scenario  string   `json:"scenario"`
	Seed      int64    `json:"seed"`
	Events    int      `json:"events"`
	Bytes     int64    `json:"bytes"`
	Dropped   int64    `json:"dropped"`
	MaxView   int64    `json:"max_view"`
	Decided   int      `json:"decided"`
	Last      int64    `json:"last_decision_at,omitempty"`
	Finalized []int64  `json:"finalized,omitempty"`
	Decisions []string `json:"decisions,omitempty"`
	Chains    []string `json:"chains,omitempty"`
}

const goldenPath = "testdata/golden_runs.json"

// TestGoldenNamedScenarios is the refactor-pinning differential test: every
// named simulator scenario, at three seeds each, must reproduce the decided
// chains and event/byte accounting recorded before the multishot flattening
// refactor. TCP-engine scenarios are excluded (wall-clock timing is not
// reproducible); they are covered by their own convergence tests.
func TestGoldenNamedScenarios(t *testing.T) {
	var got []goldenRun
	for _, base := range Named() {
		if base.Engine == EngineTCP {
			continue
		}
		if base.Shards != nil {
			// Sharded scenarios reject Collect.Chain (the fold is
			// per-shard); their determinism is pinned by
			// TestShardedSimDeterministic instead.
			continue
		}
		for rep := int64(0); rep < 3; rep++ {
			sc := base
			if sc.Seed == 0 {
				sc.Seed = 1
			}
			sc.Seed += rep
			sc.Collect.Chain = true
			res, err := Run(sc)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sc.Name, sc.Seed, err)
			}
			got = append(got, goldenOf(sc, res))
		}
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden runs to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to regenerate): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d runs, fixture has %d (named scenario set changed; regenerate with -update)", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Scenario != g.Scenario || w.Seed != g.Seed {
			t.Fatalf("run %d is %s seed %d, fixture has %s seed %d (scenario set changed; regenerate with -update)",
				i, g.Scenario, g.Seed, w.Scenario, w.Seed)
		}
		wj, _ := json.Marshal(w)
		gj, _ := json.Marshal(g)
		if string(wj) != string(gj) {
			t.Errorf("%s seed %d diverged from the pre-refactor engine:\n  want %s\n  got  %s", w.Scenario, w.Seed, wj, gj)
		}
	}
}

const goldenShardPath = "testdata/golden_shard_runs.json"

// goldenShardRun is one sharded simulator run pinned to its full marshaled
// Result.
type goldenShardRun struct {
	Scenario string          `json:"scenario"`
	Seed     int64           `json:"seed"`
	Result   json.RawMessage `json:"result"`
}

// TestGoldenShardRuns pins the sharded simulator the way
// TestGoldenNamedScenarios pins the flat one, but on the whole Result:
// every named sharded simulator scenario at seeds 1-3, plus one variant with
// a silent replica (shard 1, node 2) and stage and metric collection on.
// TestShardedSimDeterministic only checks that two runs agree with each
// other; this checks that they agree with the recorded runs.
func TestGoldenShardRuns(t *testing.T) {
	var specs []Scenario
	for _, base := range Named() {
		if base.Shards == nil || base.Engine == EngineTCP {
			continue
		}
		for seed := int64(1); seed <= 3; seed++ {
			sc := base
			sc.Seed = seed
			specs = append(specs, sc)
		}
	}
	variant, ok := ByName("sharded-service")
	if !ok {
		t.Fatal("sharded-service scenario missing from the bundle")
	}
	variant.Name = "sharded-service-silent-collect"
	variant.Faults = []FaultSpec{{Type: FaultSilent, Shard: 1, Node: 2}}
	variant.Collect = CollectSpec{Stages: true, Metrics: true}
	specs = append(specs, variant)

	var got []goldenShardRun
	for _, sc := range specs {
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%s seed %d: %v", sc.Name, sc.Seed, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, goldenShardRun{Scenario: sc.Name, Seed: sc.Seed, Result: b})
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenShardPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden sharded runs to %s", len(got), goldenShardPath)
		return
	}

	data, err := os.ReadFile(goldenShardPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to regenerate): %v", err)
	}
	var want []goldenShardRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d sharded runs, fixture has %d (regenerate with -update)", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		var wc bytes.Buffer
		if err := json.Compact(&wc, w.Result); err != nil {
			t.Fatal(err)
		}
		if w.Scenario != g.Scenario || w.Seed != g.Seed || wc.String() != string(g.Result) {
			t.Errorf("%s seed %d diverged from the recorded sharded run:\n  want %s seed %d %s\n  got  %s seed %d %s",
				g.Scenario, g.Seed, w.Scenario, w.Seed, wc.String(), g.Scenario, g.Seed, g.Result)
		}
	}
}

const goldenFlatPath = "testdata/golden_flat_results.json"

// goldenFlatRun is one flat simulator run pinned to its whole marshaled
// Result — or, for a traced run, the Result's SHA-256 — and to the error
// text of a run that failed.
type goldenFlatRun struct {
	Scenario string          `json:"scenario"`
	Seed     int64           `json:"seed"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	SHA256   string          `json:"sha256,omitempty"`
}

// flatGoldenSpecs are the runs TestGoldenFlatResults pins: every flat named
// simulator scenario at seeds 1-3, a multishot and a single-shot run with
// each of the trace, stages and metrics collectors on alone, an
// arrival-process stream, a pbft-multi run at offered load and a run that
// exhausts its event budget.
func flatGoldenSpecs(t *testing.T) []Scenario {
	t.Helper()
	var specs []Scenario
	for _, base := range Named() {
		if base.Shards != nil || base.Engine == EngineTCP {
			continue
		}
		for seed := int64(1); seed <= 3; seed++ {
			sc := base
			sc.Seed = seed
			specs = append(specs, sc)
		}
	}
	bases := []Scenario{
		{Name: "collect-multi", Protocol: TetraBFTMulti, Nodes: 4, Seed: 5,
			Workload: WorkloadSpec{Slots: 8, TxCount: 80, TxRate: 200, BatchSize: 4},
			Stop:     StopSpec{AllDecided: true}},
		{Name: "collect-single", Protocol: TetraBFT, Nodes: 4, Seed: 2,
			Faults: []FaultSpec{{Type: FaultSilent, Node: 0}},
			Stop:   StopSpec{AllDecided: true}},
	}
	for _, base := range bases {
		for _, c := range []struct {
			name    string
			collect CollectSpec
		}{
			{"trace", CollectSpec{Trace: true}},
			{"stages", CollectSpec{Stages: true}},
			{"metrics", CollectSpec{Metrics: true}},
		} {
			sc := base
			sc.Name += "-" + c.name
			sc.Collect = c.collect
			specs = append(specs, sc)
		}
	}
	return append(specs,
		Scenario{Name: "arrival-stream", Protocol: TetraBFTMulti, Nodes: 7, Seed: 11,
			Workload: WorkloadSpec{Slots: 20, TxCount: 400, BatchSize: 16, Window: 3,
				Arrival: &workload.ArrivalSpec{Process: workload.ProcessPoisson, Rate: 300}},
			Stop: StopSpec{AllDecided: true}},
		Scenario{Name: "pbft-multi-load", Protocol: PBFTMulti, Nodes: 4, Seed: 3,
			Faults:   []FaultSpec{{Type: FaultSilent, Node: 1}},
			Workload: WorkloadSpec{Slots: 4, TxCount: 40, TxRate: 100, BatchSize: 8},
			Stop:     StopSpec{Horizon: 5000}, Collect: CollectSpec{Chain: true}},
		Scenario{Name: "event-budget", Protocol: TetraBFTMulti, Nodes: 4, Seed: 1,
			Network:  NetworkSpec{EventBudget: 300},
			Workload: WorkloadSpec{Slots: 20, TxCount: 50, TxRate: 100},
			Stop:     StopSpec{AllDecided: true}},
	)
}

// TestGoldenFlatResults pins flat simulator runs the way TestGoldenShardRuns
// pins sharded ones: on the whole Result, so the fields the fingerprint of
// TestGoldenNamedScenarios leaves out — finish and first-decision times,
// traffic, offered and decided transactions and their latencies, storage,
// stages and metrics — are held too.
func TestGoldenFlatResults(t *testing.T) {
	var got []goldenFlatRun
	for _, sc := range flatGoldenSpecs(t) {
		res, err := Run(sc)
		g := goldenFlatRun{Scenario: sc.Name, Seed: sc.Seed}
		if err != nil {
			g.Error = err.Error()
		}
		b, merr := json.Marshal(res)
		if merr != nil {
			t.Fatal(merr)
		}
		if sc.Collect.Trace {
			g.SHA256 = fmt.Sprintf("%x", sha256.Sum256(b))
		} else {
			g.Result = b
		}
		got = append(got, g)
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFlatPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden flat runs to %s", len(got), goldenFlatPath)
		return
	}

	data, err := os.ReadFile(goldenFlatPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to regenerate): %v", err)
	}
	var want []goldenFlatRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d flat runs, fixture has %d (regenerate with -update)", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		var wc bytes.Buffer
		if len(w.Result) > 0 {
			if err := json.Compact(&wc, w.Result); err != nil {
				t.Fatal(err)
			}
		}
		if w.Scenario != g.Scenario || w.Seed != g.Seed || w.Error != g.Error || w.SHA256 != g.SHA256 || wc.String() != string(g.Result) {
			t.Errorf("%s seed %d diverged from the recorded flat run:\n  want %s seed %d error %q sha256 %s %s\n  got  %s seed %d error %q sha256 %s %s",
				g.Scenario, g.Seed, w.Scenario, w.Seed, w.Error, w.SHA256, wc.String(), g.Scenario, g.Seed, g.Error, g.SHA256, g.Result)
		}
	}
}

// goldenOf compresses a run into its golden fingerprint.
func goldenOf(sc Scenario, res *Result) goldenRun {
	g := goldenRun{
		Scenario: sc.Name,
		Seed:     sc.Seed,
		Events:   res.Events,
		Bytes:    res.TotalSentBytes,
		Dropped:  res.Dropped,
		MaxView:  res.MaxView,
		Decided:  res.DecidedCount,
		Last:     res.LastDecisionAt,
	}
	for _, f := range res.Finalized {
		g.Finalized = append(g.Finalized, int64(f.Slot))
	}
	for _, d := range res.Decisions {
		val := d.Value
		if id, ok := types.BlockIDFromValue(d.Value); ok {
			val = types.Value(id.String())
		}
		g.Decisions = append(g.Decisions, fmt.Sprintf("%d/%d@%d=%s", d.Node, d.Slot, d.At, val))
	}
	if len(res.Chain) > 0 {
		line := ""
		for _, b := range res.Chain {
			line += b.ID().String() + " "
		}
		g.Chains = append(g.Chains, line)
	}
	return g
}
