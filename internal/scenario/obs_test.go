package scenario

import (
	"encoding/json"
	"testing"

	"tetrabft/internal/trace"
)

// TestStagesSimMultishot folds a good-case multishot sim run into the stage
// breakdown: the pipeline's propose→finalize spans must cover every
// finalized slot, and the raw trace stays out of the result unless asked.
func TestStagesSimMultishot(t *testing.T) {
	sc := Scenario{
		Name:     "stages-sim",
		Protocol: TetraBFTMulti,
		Nodes:    4,
		Workload: WorkloadSpec{MaxSlot: 10},
		Stop:     StopSpec{Horizon: 5000},
		Collect:  CollectSpec{Stages: true},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) == 0 {
		t.Fatal("Collect.Stages produced no stage breakdown")
	}
	if len(res.Trace) != 0 {
		t.Errorf("raw trace leaked into the result without Collect.Trace (%d events)", len(res.Trace))
	}
	e2e, ok := res.StageDist(trace.StageProposeToFinalize)
	if !ok {
		t.Fatalf("no %s stage in %v", trace.StageProposeToFinalize, res.Stages)
	}
	// Pipelined finalization trails the vote for slot s+1, so end-to-end
	// latency is ~3 one-tick message delays.
	if e2e.Count == 0 || e2e.P50 <= 0 {
		t.Errorf("%s: count=%d p50=%d, want observed spans with positive latency", e2e.Stage, e2e.Count, e2e.P50)
	}
	if e2e.P99 < e2e.P50 {
		t.Errorf("%s: p99=%d < p50=%d", e2e.Stage, e2e.P99, e2e.P50)
	}
	if _, ok := res.StageDist(trace.StageProposeToVote1); !ok {
		t.Errorf("no %s stage in %v", trace.StageProposeToVote1, res.Stages)
	}
}

// TestStagesSimSingleShot folds the single-shot core's vote ladder: the
// 4δ good case must show propose→vote-1 and the end-to-end span.
func TestStagesSimSingleShot(t *testing.T) {
	sc := Scenario{
		Name:    "stages-single",
		Nodes:   4,
		Stop:    StopSpec{AllDecided: true},
		Collect: CollectSpec{Stages: true},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{trace.StageProposeToVote1, trace.StageVote1ToVote2, trace.StageProposeToFinalize} {
		if _, ok := res.StageDist(stage); !ok {
			t.Errorf("no %s stage in %v", stage, res.Stages)
		}
	}
}

// TestStagesDeterministic pins the breakdown's byte-level determinism on the
// simulator: same spec, same seed, identical JSON.
func TestStagesDeterministic(t *testing.T) {
	sc := Scenario{
		Name:     "stages-det",
		Protocol: TetraBFTMulti,
		Nodes:    4,
		Seed:     7,
		Workload: WorkloadSpec{MaxSlot: 8},
		Stop:     StopSpec{Horizon: 5000},
		Collect:  CollectSpec{Stages: true, Metrics: true},
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
		t.Errorf("same-seed stage results differ:\n%s\n%s", a, b)
	}
}

// TestCollectOffUnchanged pins golden compatibility: a run with the new
// collection flags off marshals without stages or metrics keys at all, so
// pre-observability golden results stay byte-identical.
func TestCollectOffUnchanged(t *testing.T) {
	sc := Scenario{
		Name:     "collect-off",
		Protocol: TetraBFTMulti,
		Nodes:    4,
		Workload: WorkloadSpec{MaxSlot: 6},
		Stop:     StopSpec{Horizon: 5000},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages != nil || res.Metrics != nil {
		t.Fatalf("disabled collection still populated stages=%v metrics=%v", res.Stages, res.Metrics)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"stages", "metrics"} {
		if _, ok := m[key]; ok {
			t.Errorf("disabled collection leaked %q into the result JSON", key)
		}
	}
}

// TestCollectExactly checks that every runner returns exactly the payloads
// the collect flags ask for: each of trace, stages, metrics and chain is
// present when requested and absent otherwise — a traced run yields stage
// samples but reports no stages unless they were asked for.
func TestCollectExactly(t *testing.T) {
	flat := Scenario{Protocol: TetraBFTMulti, Nodes: 4, Workload: WorkloadSpec{Slots: 6, TxCount: 20, TxRate: 100}}
	sim := flat
	sim.Stop = StopSpec{Horizon: 5000}
	tcp := flat
	tcp.Engine, tcp.Stop = EngineTCP, StopSpec{WallClockMS: 30000}
	sharded := Scenario{Protocol: TetraBFTMulti, Shards: &ShardsSpec{Count: 2, AnchorInterval: 40},
		Workload: WorkloadSpec{Slots: 6, TxCount: 20, TxRate: 100}, Stop: StopSpec{Horizon: 4000}}
	all := []CollectSpec{{Trace: true}, {Stages: true}, {Metrics: true}, {Chain: true}}
	for _, run := range []struct {
		name     string
		sc       Scenario
		collects []CollectSpec
	}{
		{"sim", sim, all},
		{"tcp", tcp, all},
		{"sharded-sim", sharded, []CollectSpec{{Stages: true}, {Metrics: true}}},
	} {
		if run.sc.Engine == EngineTCP && testing.Short() {
			continue
		}
		for _, c := range run.collects {
			sc := run.sc
			sc.Collect = c
			res, err := Run(sc)
			if err != nil {
				t.Fatalf("%s %+v: %v", run.name, c, err)
			}
			shardStages := false
			for _, sr := range res.Shards {
				shardStages = shardStages || sr.Stages != nil
			}
			for _, payload := range []struct {
				name      string
				want, got bool
			}{
				{"trace", c.Trace, res.Trace != nil},
				{"stages", c.Stages, res.Stages != nil},
				{"shard stages", c.Stages && sc.Shards != nil, shardStages},
				{"metrics", c.Metrics, res.Metrics != nil},
				{"chain", c.Chain, res.Chain != nil},
				{"chains", c.Chain && sc.Engine == EngineTCP, res.Chains != nil},
			} {
				if payload.got != payload.want {
					t.Errorf("%s collecting %+v: %s present = %v, want %v", run.name, c, payload.name, payload.got, payload.want)
				}
			}
		}
	}
}

// TestMetricsSim checks the registry snapshot reaches the result with the
// hot-path counters the run must have exercised.
func TestMetricsSim(t *testing.T) {
	sc := Scenario{
		Name:     "metrics-sim",
		Protocol: TetraBFTMulti,
		Nodes:    4,
		Workload: WorkloadSpec{MaxSlot: 8},
		Stop:     StopSpec{Horizon: 5000},
		Collect:  CollectSpec{Metrics: true},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"sim_messages_sent_total",
		"sim_events_total",
		"multishot_deliveries_total",
		"multishot_proposals_total",
		"multishot_finalized_slots_total",
	} {
		if res.Metric(name) == 0 {
			t.Errorf("metric %s = 0, want > 0 (snapshot: %v)", name, res.Metrics)
		}
	}
}

// TestStagesTCP exercises the shared fold on the TCP engine: wall-clock
// millisecond events from real runtimes must produce the same stage names.
func TestStagesTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP runtimes in -short mode")
	}
	noLeaks(t)
	sc := Scenario{
		Name:     "stages-tcp",
		Protocol: TetraBFTMulti,
		Engine:   EngineTCP,
		Nodes:    4,
		Workload: WorkloadSpec{Slots: 6, Window: 2},
		Stop:     StopSpec{WallClockMS: 30000},
		Collect:  CollectSpec{Stages: true, Metrics: true, Trace: true},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	e2e, ok := res.StageDist(trace.StageProposeToFinalize)
	if !ok {
		t.Fatalf("no %s stage in %v", trace.StageProposeToFinalize, res.Stages)
	}
	if e2e.Count == 0 {
		t.Errorf("%s: no spans observed", e2e.Stage)
	}
	if len(res.Trace) == 0 {
		t.Error("Collect.Trace on TCP returned no events")
	}
	// The sorted trace is a stable artifact: (time, node, type, slot)
	// non-decreasing.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Time < res.Trace[i-1].Time {
			t.Fatalf("trace not sorted by time at %d: %v after %v", i, res.Trace[i], res.Trace[i-1])
		}
	}
	if res.Metric("transport_frames_sent_total") == 0 {
		t.Errorf("transport_frames_sent_total = 0, want > 0 (snapshot: %v)", res.Metrics)
	}
	if res.Metric("multishot_finalized_slots_total") == 0 {
		t.Errorf("multishot_finalized_slots_total = 0 (snapshot: %v)", res.Metrics)
	}
}

// TestStagesShardSim checks the sharded fold: every shard reports its own
// breakdown and the aggregate pools them.
func TestStagesShardSim(t *testing.T) {
	sc := Scenario{
		Name:     "stages-shards",
		Protocol: TetraBFTMulti,
		Shards:   &ShardsSpec{Count: 2, AnchorInterval: 40},
		Workload: WorkloadSpec{Slots: 6},
		Stop:     StopSpec{Horizon: 4000},
		Collect:  CollectSpec{Stages: true, Metrics: true},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) == 0 {
		t.Fatal("sharded run produced no pooled stage breakdown")
	}
	total := 0
	for _, sr := range res.Shards {
		if len(sr.Stages) == 0 {
			t.Errorf("shard %d has no stage breakdown", sr.Shard)
			continue
		}
		for _, d := range sr.Stages {
			if d.Stage == trace.StageProposeToFinalize {
				total += d.Count
			}
		}
	}
	pooled, ok := res.StageDist(trace.StageProposeToFinalize)
	if !ok {
		t.Fatalf("no pooled %s stage", trace.StageProposeToFinalize)
	}
	if pooled.Count != total {
		t.Errorf("pooled %s count %d != sum of per-shard counts %d", pooled.Stage, pooled.Count, total)
	}
	if res.Metric("multishot_finalized_slots_total") == 0 {
		t.Error("sharded metrics snapshot missing multishot_finalized_slots_total")
	}
}
