package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tetrabft/internal/types"
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
