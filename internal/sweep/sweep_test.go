package sweep

import (
	"strings"
	"testing"

	"tetrabft/internal/scenario"
	"tetrabft/internal/types"
)

// smallSweep is the test grid: 2×2 cells, 2 replicates, one assertion that
// holds everywhere.
func smallSweep() Sweep {
	return Sweep{
		Name: "small",
		Base: scenario.Scenario{
			Protocol: scenario.TetraBFT,
			Nodes:    4,
			Stop:     scenario.StopSpec{Horizon: 4000, AllDecided: true},
		},
		Axes: []Axis{
			{Field: "nodes", Ints: []int64{4, 7}},
			{Field: "delta", Ints: []int64{10, 20}},
		},
		Replicates: 2,
		Assert:     []string{"max_latency <= 5", "min_decided >= 4"},
	}
}

// TestGridEnumeration pins the grid shape and order: the first axis is the
// outermost loop, labels carry the applied values, and the cell scenario is
// the base with the axis fields applied at the replicate-0 seed.
func TestGridEnumeration(t *testing.T) {
	res, err := Run(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(res.Cells))
	}
	wantLabels := []string{
		"nodes=4 delta=10", "nodes=4 delta=20",
		"nodes=7 delta=10", "nodes=7 delta=20",
	}
	for i, c := range res.Cells {
		if c.LabelString() != wantLabels[i] {
			t.Errorf("cell %d labels = %q, want %q", i, c.LabelString(), wantLabels[i])
		}
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
		if len(c.Reps) != 2 {
			t.Errorf("cell %d has %d replicates, want 2", i, len(c.Reps))
		}
		if c.Reps[0].Seed != 1 || c.Reps[1].Seed != 2 {
			t.Errorf("cell %d seeds = %d,%d, want 1,2", i, c.Reps[0].Seed, c.Reps[1].Seed)
		}
		if c.Scenario.Seed != 1 {
			t.Errorf("cell %d stored scenario seed = %d, want the replicate-0 seed 1", i, c.Scenario.Seed)
		}
	}
	if res.Cells[2].Scenario.Nodes != 7 || res.Cells[2].Scenario.Delta != 10 {
		t.Errorf("cell 2 scenario = n%d Δ%d, want n7 Δ10", res.Cells[2].Scenario.Nodes, res.Cells[2].Scenario.Delta)
	}
	if !res.Pass || res.FailedCells != 0 {
		t.Errorf("verdict fail: %+v", res)
	}
}

// TestSweepValidation rejects malformed sweeps with a diagnosable error.
func TestSweepValidation(t *testing.T) {
	base := scenario.Scenario{Nodes: 4}
	cases := []struct {
		name string
		sw   Sweep
		want string
	}{
		{"unknown field", Sweep{Base: base, Axes: []Axis{{Field: "warp", Ints: []int64{1}}}}, "unknown axis field"},
		{"no values", Sweep{Base: base, Axes: []Axis{{Field: "nodes"}}}, "exactly one"},
		{"two lists", Sweep{Base: base, Axes: []Axis{{Field: "nodes", Ints: []int64{4}, Floats: []float64{1}}}}, "exactly one"},
		{"wrong type", Sweep{Base: base, Axes: []Axis{{Field: "nodes", Floats: []float64{4}}}}, "wrong type"},
		{"invalid cell", Sweep{Base: base, Axes: []Axis{{Field: "nodes", Ints: []int64{4, -1}}}}, "cell nodes=-1"},
		{"negative replicates", Sweep{Base: base, Replicates: -2}, "negative replicates"},
		{"bad assertion grammar", Sweep{Base: base, Assert: []string{"latency <= 9"}}, "unknown aggregate"},
		{"bad assertion metric", Sweep{Base: base, Assert: []string{"p99_warp <= 9"}}, "unknown metric"},
		{"bad assertion op", Sweep{Base: base, Assert: []string{"p99_latency ~ 9"}}, "unknown operator"},
		{"bad assertion bound", Sweep{Base: base, Assert: []string{"p99_latency <= fast"}}, "bad bound"},
		{"tcp base with invalid fault", Sweep{Base: scenario.Scenario{
			Engine: scenario.EngineTCP, Protocol: scenario.TetraBFTMulti, Nodes: 4,
			Workload: scenario.WorkloadSpec{Slots: 2},
			Faults:   []scenario.FaultSpec{{Type: scenario.FaultCrashRestart, Node: 0, CrashAtMS: 100, RestartAtMS: 50}},
		}}, "before its crash"},
		{"selector names no axis", Sweep{Base: base, Axes: []Axis{{Field: "delta", Ints: []int64{10}}},
			Assert: []string{"nodes=4: max_latency <= 5"}}, `selector field "nodes" is not an axis`},
		{"selector matches no cell", Sweep{Base: base, Axes: []Axis{{Field: "delta", Ints: []int64{10, 20}}},
			Assert: []string{"delta=30: max_latency <= 5"}}, "selector matches no cell"},
		{"selector without a pair", Sweep{Base: base, Assert: []string{"pbft: max_latency <= 5"}}, "selector wants field=value pairs"},
		{"grid explosion", Sweep{Base: base, Axes: []Axis{
			{Field: "delta", Ints: make([]int64, 200)},
			{Field: "gst", Ints: make([]int64, 200)},
		}}, "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sw.Validate()
			if err == nil {
				t.Fatalf("sweep accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestParseStrictSweep rejects unknown fields, mirroring scenario.Parse.
func TestParseStrictSweep(t *testing.T) {
	if _, err := Parse([]byte(`{"base": {"nodes": 4}, "replicats": 3}`)); err == nil {
		t.Error("misspelled field accepted")
	}
	sw, err := Parse([]byte(`{"base": {"nodes": 4}, "axes": [{"field": "delta", "ints": [5, 10]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Axes) != 1 || len(sw.Axes[0].Ints) != 2 {
		t.Errorf("parsed sweep = %+v", sw)
	}
}

// TestNamedSweepsRun runs every bundled sweep and requires a passing
// verdict — these are the library users copy from, so they must hold their
// own SLOs (timeout-factor deliberately has none: its livelock cells are
// the result being demonstrated).
func TestNamedSweepsRun(t *testing.T) {
	for _, sw := range Named() {
		sw := sw
		t.Run(sw.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(sw)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Pass {
				for _, c := range res.Cells {
					if !c.Pass {
						t.Errorf("cell %s: %v %s", c.LabelString(), c.FailedAsserts, c.FirstError)
					}
				}
			}
		})
	}
}

// TestTimeoutFactorLivelockVisible pins what the timeout-factor sweep is
// for: the factor-2 cell livelocks (zero latency samples, nobody decides)
// while the 9Δ cell decides everywhere — the grid shows the 8Δ cliff.
func TestTimeoutFactorLivelockVisible(t *testing.T) {
	sw, ok := ByName("timeout-factor")
	if !ok {
		t.Fatal("timeout-factor sweep missing")
	}
	res, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Cells[0].Stats["latency"].Count; got != 0 {
		t.Errorf("factor-2 cell decided %d times, want livelock", got)
	}
	if got := res.Cells[2].Stats["latency"].Count; got != 3 {
		t.Errorf("factor-9 cell has %d latency samples, want 3", got)
	}
}

// TestAssertionVerdict pins the fail path: a violated SLO flips the cell
// and sweep verdicts and names the offending value.
func TestAssertionVerdict(t *testing.T) {
	sw := smallSweep()
	sw.Assert = []string{"max_latency <= 4"} // good case takes exactly 5
	res, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass || res.FailedCells != 4 {
		t.Fatalf("pass = %v, failed = %d; want all 4 cells failing", res.Pass, res.FailedCells)
	}
	if got := res.Cells[0].FailedAsserts; len(got) != 1 || !strings.Contains(got[0], "got 5") {
		t.Errorf("failed asserts = %v, want the violated clause with value 5", got)
	}
}

// TestAssertionNoSamplesFails pins that an SLO over data that does not
// exist fails instead of vacuously passing.
func TestAssertionNoSamplesFails(t *testing.T) {
	sw := Sweep{
		Base: scenario.Scenario{
			Nodes: 4,
			// Nobody can decide: a 2-2 partition that never heals leaves
			// no quorum on either side.
			Faults: []scenario.FaultSpec{{
				Type:   scenario.FaultPartition,
				Groups: [][]types.NodeID{{0, 1}, {2, 3}},
			}},
			Stop: scenario.StopSpec{Horizon: 500},
		},
		Assert: []string{"p99_latency <= 100"},
	}
	res, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatal("assertion over zero samples passed vacuously")
	}
	if got := res.Cells[0].FailedAsserts; len(got) != 1 || !strings.Contains(got[0], "no latency samples") {
		t.Errorf("failed asserts = %v, want a no-samples failure", got)
	}

	// The count aggregate is the exception: it evaluates the zero
	// honestly, so an expected livelock is assertable.
	sw.Assert = []string{"count_latency == 0", "max_decided <= 0"}
	res, err = Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Errorf("count_latency == 0 failed on a livelocked cell: %+v", res.Cells[0].FailedAsserts)
	}
}

// TestRunFailureFailsCell pins that a replicate-level run error (here an
// agreement violation under a broken protocol variant) fails the cell
// without aborting the sweep, and the error is surfaced.
func TestRunFailureFailsCell(t *testing.T) {
	sw := Sweep{
		Base: scenario.Scenario{
			Protocol: scenario.TetraBFT,
			Nodes:    4,
			Faults: []scenario.FaultSpec{
				{Type: scenario.FaultStarveDecision, Node: 0, To: 50},
				{Type: scenario.FaultForgedHistory, Node: 1, View: 1, ValueA: "b"},
			},
			Stop: scenario.StopSpec{Horizon: 4000},
		},
		Axes: []Axis{{Field: "mutation", Strings: []string{"", "skip-rule-3"}}},
	}
	res, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cells[0].Pass {
		t.Errorf("correct-protocol cell failed: %+v", res.Cells[0])
	}
	broken := res.Cells[1]
	if broken.Pass || broken.Failures != 1 {
		t.Fatalf("skip-rule-3 cell: pass=%v failures=%d, want a failing cell", broken.Pass, broken.Failures)
	}
	if !strings.Contains(broken.FirstError, "agreement violated") {
		t.Errorf("first error = %q, want an agreement violation", broken.FirstError)
	}
	if res.Pass || res.FailedCells != 1 {
		t.Errorf("sweep verdict pass=%v failed=%d, want FAIL with 1 cell", res.Pass, res.FailedCells)
	}
}

// TestReportWriters smoke-checks the markdown and CSV renderings: header,
// one row per cell, verdict line.
func TestReportWriters(t *testing.T) {
	res, err := Run(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	var md strings.Builder
	WriteMarkdown(&md, res)
	out := md.String()
	for _, want := range []string{"## sweep: small", "| nodes=4 delta=10 |", "verdict: PASS", "latency mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown lacks %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	WriteCSV(&csv, res)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	// Header + (4 cells × one line per populated metric).
	if len(lines) < 1+4*5 {
		t.Errorf("CSV has %d lines:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "cell,labels,metric,") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

// TestDiff pins the -compare semantics: identical results diff empty; a
// perturbed replicate metric and a flipped verdict are both reported.
func TestDiff(t *testing.T) {
	a, err := Run(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(a, b); len(d) != 0 {
		t.Fatalf("identical runs diff: %v", d)
	}
	b.Cells[1].Reps[0].Traffic += 100
	b.Cells[1].Pass = false
	b.Pass = false
	d := Diff(a, b)
	if len(d) == 0 {
		t.Fatal("perturbed result diffs empty")
	}
	joined := strings.Join(d, "\n")
	for _, want := range []string{"cell 1", "seed 1", "verdict"} {
		if !strings.Contains(joined, want) {
			t.Errorf("diff lacks %q:\n%s", want, joined)
		}
	}
}

// TestStageMetricsOptIn pins the stage_e2e_* sweep metrics: present and
// assertable when the cell spec collects stages, absent otherwise.
func TestStageMetricsOptIn(t *testing.T) {
	sw := Sweep{
		Name: "stage-metrics",
		Base: scenario.Scenario{
			Protocol: scenario.TetraBFTMulti,
			Nodes:    4,
			Workload: scenario.WorkloadSpec{MaxSlot: 8},
			Stop:     scenario.StopSpec{Horizon: 5000},
			Collect:  scenario.CollectSpec{Stages: true},
		},
		Axes:       []Axis{{Field: "delta", Ints: []int64{10}}},
		Replicates: 2,
		Assert:     []string{"max_stage_e2e_p99 <= 50", "min_stage_e2e_p50 >= 1"},
	}
	res, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("stage assertions failed: %+v", res.Cells[0].FailedAsserts)
	}
	if d := res.Cells[0].Stats["stage_e2e_p50"]; d.Count != 2 {
		t.Errorf("stage_e2e_p50 has %d samples, want 2", d.Count)
	}

	// Without collect.stages the metric has no samples and the assertion
	// fails loudly instead of passing vacuously.
	sw.Base.Collect.Stages = false
	sw.Name = "stage-metrics-off"
	res, err = Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Error("stage assertion passed without stage collection")
	}
	if len(res.Cells[0].FailedAsserts) == 0 || !strings.Contains(res.Cells[0].FailedAsserts[0], "no stage_e2e") {
		t.Errorf("failed asserts = %v, want a no-samples failure", res.Cells[0].FailedAsserts)
	}
}
