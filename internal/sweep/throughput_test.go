package sweep

import (
	"strings"
	"testing"

	"tetrabft/internal/scenario"
)

// TestThroughputScalingBatchMonotonic runs the bundled throughput-scaling
// sweep and checks the headline claim: at the saturating offered rate,
// decided-transaction throughput strictly increases with the batch cap, for
// every cluster size in the grid.
func TestThroughputScalingBatchMonotonic(t *testing.T) {
	sw, ok := ByName("throughput-scaling")
	if !ok {
		t.Fatal("throughput-scaling sweep missing")
	}
	res, err := Run(sw)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Pass {
		for _, c := range res.Cells {
			if !c.Pass {
				t.Errorf("cell %s: %s %v", c.LabelString(), c.FirstError, c.FailedAsserts)
			}
		}
		t.Fatal("sweep failed")
	}
	// Group the saturating-rate cells by cluster size; within each group the
	// batch_size axis must yield strictly increasing mean throughput.
	perNodes := make(map[string][]float64)
	for _, c := range res.Cells {
		labels := c.LabelString()
		if !strings.Contains(labels, "tx_rate=10000") {
			continue
		}
		var nodes string
		for _, l := range c.Labels {
			if l.Field == "nodes" {
				nodes = l.Value
			}
		}
		perNodes[nodes] = append(perNodes[nodes], c.Stats["tx_throughput"].Mean)
	}
	if len(perNodes) == 0 {
		t.Fatal("no saturating-rate cells found")
	}
	for nodes, tps := range perNodes {
		if len(tps) < 2 {
			t.Fatalf("nodes=%s: only %d batch sizes", nodes, len(tps))
		}
		for i := 1; i < len(tps); i++ {
			if tps[i] <= tps[i-1] {
				t.Errorf("nodes=%s: throughput not strictly increasing with batch size: %v", nodes, tps)
				break
			}
		}
	}
}

// TestThroughputAxes pins the new workload axis fields end to end: each
// must be accepted, applied to the cell's scenario, and reflected in its
// label.
func TestThroughputAxes(t *testing.T) {
	sw, _ := ByName("throughput-scaling")
	p, err := sw.compile()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 3 * 2; len(p.cells) != want {
		t.Fatalf("grid has %d cells, want %d", len(p.cells), want)
	}
	last := p.cells[len(p.cells)-1]
	w := last.sc.Workload
	if w.TxRate != 10000 || w.BatchSize != 16 || last.sc.Nodes != 7 {
		t.Fatalf("last cell not fully applied: rate=%d batch=%d nodes=%d", w.TxRate, w.BatchSize, last.sc.Nodes)
	}
	if got := labelString(last.labels); got != "tx_rate=10000 batch_size=16 nodes=7" {
		t.Fatalf("unexpected labels %q", got)
	}
	// window rides as an axis too.
	win := Sweep{
		Base: sw.Base,
		Axes: []Axis{{Field: "window", Ints: []int64{1, 3}}},
	}
	wp, err := win.compile()
	if err != nil {
		t.Fatal(err)
	}
	if wp.cells[1].sc.Workload.Window != 3 {
		t.Fatalf("window axis not applied: %+v", wp.cells[1].sc.Workload)
	}
}

// TestTxThroughputToLastDecision pins tx_throughput's divisor: decided
// transactions per 1000 ticks up to the last decision, not up to the run's
// end, which trails it by the stale timers still pending when the queue
// drains.
func TestTxThroughputToLastDecision(t *testing.T) {
	sw := Sweep{
		Base: scenario.Scenario{
			Protocol: scenario.TetraBFTMulti,
			Nodes:    4,
			Workload: scenario.WorkloadSpec{Slots: 30, TxCount: 4000, TxRate: 10000, Window: 2},
			Stop:     scenario.StopSpec{Horizon: 6000},
		},
		Axes: []Axis{{Field: "batch_size", Ints: []int64{1, 16}}},
	}
	res, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		rep := c.Reps[0]
		traced := c.Scenario
		traced.Collect.Trace = true // the latest finalization, read apart from the commit record
		standalone, err := scenario.Run(traced)
		if err != nil {
			t.Fatal(err)
		}
		var last int64
		for _, e := range standalone.Trace {
			if e.Type == "finalize" || e.Type == "adopt-final" {
				last = max(last, int64(e.Time))
			}
		}
		if last != standalone.LastDecisionAt {
			t.Fatalf("cell %s: last_decision_at %d, the trace's last finalization %d", c.LabelString(), standalone.LastDecisionAt, last)
		}
		if last == 0 || last >= standalone.FinishedAt {
			t.Fatalf("cell %s: last decision %d, run end %d: the cell does not separate the two", c.LabelString(), last, standalone.FinishedAt)
		}
		if want := float64(rep.DecidedTxs) * 1000 / float64(last); rep.TxThroughput != want {
			t.Errorf("cell %s: tx_throughput %g, want decided_txs × 1000 / last decision = %g", c.LabelString(), rep.TxThroughput, want)
		}
	}
}
