package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tetrabft/internal/bench"
	"tetrabft/internal/scenario"
	"tetrabft/internal/sweep"
	"tetrabft/internal/types"
)

// TestVerificationRuns asserts E7 executes clean at CI effort.
func TestVerificationRuns(t *testing.T) {
	res, err := Verification(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("verification found %d violations", res.Violations)
	}
	if res.BFSStates == 0 || res.WalkStates == 0 || res.InductionSteps == 0 || res.LivenessRuns == 0 {
		t.Errorf("verification under-ran: %+v", res)
	}
}

// TestPaperClaimsBite shows the claims refuse what the paper rules out: a
// 18Δ timeout fails E8, a constant delay of 2 fails E1's Table 1 latencies,
// and a selector that matches no cell is refused before anything runs. The
// driver exits 1 on the first two.
func TestPaperClaimsBite(t *testing.T) {
	e8, ok := sweep.ByName("paper-e8")
	if !ok {
		t.Fatal("paper-e8 missing")
	}
	e8.Base.TimeoutFactor = 18
	e1, ok := sweep.ByName("paper-e1")
	if !ok {
		t.Fatal("paper-e1 missing")
	}
	e1.Base.Network.Delay = &scenario.DelaySpec{Model: scenario.DelayConstant, D: 2}
	for _, sw := range []sweep.Sweep{e8, e1} {
		res, err := sweep.Run(sw)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pass {
			t.Errorf("%s passed a run the paper rules out", sw.Name)
		}
		for _, c := range res.Cells {
			for _, a := range c.FailedAsserts {
				t.Logf("%s cell %s: %s", sw.Name, c.LabelString(), a)
			}
		}
		if code, err := run(io.Discard, []sweep.Sweep{sw}, 1, ""); code != 1 || err != nil {
			t.Errorf("%s: driver exit %d (err %v), want 1", sw.Name, code, err)
		}
	}

	typo, _ := sweep.ByName("paper-e1")
	typo.Assert = append(typo.Assert, "protocol=pbft faults=silent@1: max_latency == 97")
	if err := typo.Validate(); err == nil || !strings.Contains(err.Error(), "selector matches no cell") {
		t.Errorf("a selector matching no cell was not refused: %v", err)
	}
	if _, err := run(io.Discard, []sweep.Sweep{typo}, 1, ""); err == nil {
		t.Error("the driver ran a sweep whose selector matches no cell")
	}
}

// benchSnapshot is the driver's -json snapshot, decoded.
type benchSnapshot struct {
	Schema  string                     `json:"schema"`
	Results map[string]json.RawMessage `json:"results"`

	sweeps map[string]*sweep.Result
	e7     VerificationResult
}

// cell returns the named sweep's cell whose labels read exactly labels.
func (b *benchSnapshot) cell(t *testing.T, name, labels string) sweep.CellResult {
	t.Helper()
	res := b.sweeps[name]
	if res == nil {
		t.Fatalf("no sweep %s in the snapshot", name)
	}
	for _, c := range res.Cells {
		if c.LabelString() == labels {
			return c
		}
	}
	t.Fatalf("%s has no cell %q", name, labels)
	return sweep.CellResult{}
}

// stat reads "<agg>_<metric>" off one cell, as an assertion does.
func (b *benchSnapshot) stat(t *testing.T, name, labels, clause string) float64 {
	t.Helper()
	c := b.cell(t, name, labels)
	for _, agg := range []string{"mean", "min", "max", "count"} {
		metric, ok := strings.CutPrefix(clause, agg+"_")
		if !ok {
			continue
		}
		d, ok := c.Stats[metric]
		if !ok && agg != "count" {
			t.Fatalf("%s %s has no %s samples", name, labels, metric)
		}
		return map[string]float64{"mean": d.Mean, "min": d.Min, "max": d.Max, "count": float64(d.Count)}[agg]
	}
	t.Fatalf("bad clause %q", clause)
	return 0
}

// bound returns the number of the sweep's assert clause that starts with
// prefix: a bound the paper states, kept as data.
func (b *benchSnapshot) bound(t *testing.T, name, prefix string) float64 {
	t.Helper()
	for _, a := range b.sweeps[name].Asserts {
		if rest, ok := strings.CutPrefix(a, prefix); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("%s asserts nothing starting %q", name, prefix)
	return 0
}

// replay reruns a cell's stored scenario: the few numbers of the old output
// that no sweep metric carries are reproduced from the spec the snapshot
// records.
func (b *benchSnapshot) replay(t *testing.T, name, labels string) *scenario.Result {
	t.Helper()
	res, err := scenario.Run(b.cell(t, name, labels).Scenario)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// firstTrace is the time of the first trace event of typ in view ≥ minView.
func firstTrace(res *scenario.Result, typ string, minView types.View) float64 {
	for _, ev := range res.TraceFilter(typ) {
		if ev.View >= minView {
			return float64(ev.Time)
		}
	}
	return -1
}

// TestParentOutputCarried holds the numbers the experiment-per-flag
// tetrabft-bench -all printed before the experiments became sweeps, and
// finds each one in the new -json by sweep, cell labels, metric and
// aggregate. A derived number states its derivation; the few that no
// metric carries are reproduced from the cell's stored scenario.
func TestParentOutputCarried(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if code, err := run(io.Discard, bench.Sweeps(), 1, path); code != 0 || err != nil {
		t.Fatalf("driver exit %d, err %v", code, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b := &benchSnapshot{sweeps: make(map[string]*sweep.Result)}
	if err := json.Unmarshal(data, b); err != nil {
		t.Fatal(err)
	}
	if b.Schema != "tetrabft-bench/v2" {
		t.Fatalf("schema %q", b.Schema)
	}
	for name, raw := range b.Results {
		if name == "e7" {
			err = json.Unmarshal(raw, &b.e7)
		} else {
			b.sweeps[name], err = sweep.ParseResult(raw)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	type row struct {
		what string
		want float64
		tol  float64 // half the old output's last printed digit
		got  func() float64
	}
	var rows []row
	add := func(what string, want float64, got func() float64) {
		rows = append(rows, row{what: what, want: want, got: got})
	}
	delta := func(name, labels string) float64 { return float64(b.cell(t, name, labels).Scenario.Delta) }

	// E1: Table 1's latency columns. A view change is measured from the
	// 9Δ timeout, and the blog IT-HS leader's fixed Δ wait is not a
	// message delay.
	for _, r := range []struct {
		proto    string
		good, vc float64
		deadWait float64 // in Δ
	}{
		{"it-hotstuff-blog", 4, 5, 1},
		{"it-hotstuff", 6, 9, 0},
		{"pbft", 3, 7, 0},
		{"liconsensus", 6, -1, 0},
		{"tetrabft", 5, 7, 0},
	} {
		good := "protocol=" + r.proto + " faults=none"
		add("E1 good case "+r.proto, r.good, func() float64 { return b.stat(t, "paper-e1", good, "max_latency") })
		vc := "protocol=" + r.proto + " faults=silent@0"
		if r.vc < 0 {
			// Li et al. has no view change: the old output printed n/a.
			add("E1 view change "+r.proto+" n/a", 0, func() float64 { return b.stat(t, "paper-e1", vc, "count_latency") })
			continue
		}
		add("E1 view change "+r.proto, r.vc, func() float64 {
			d := delta("paper-e1", vc)
			return b.stat(t, "paper-e1", vc, "max_latency") - 9*d - r.deadWait*d
		})
	}

	// E2: bytes per instance; Bytes/node is the total over n, truncated.
	protoOf := map[string]string{"TetraBFT": "tetrabft", "IT-HS": "it-hotstuff", "PBFT (bounded)": "pbft"}
	faultOf := map[string]string{"good-case": "none", "view-change": "suppress-final-phase"}
	for _, r := range []struct {
		proto, scenario string
		n               int
		total, perNode  float64
	}{
		{"TetraBFT", "good-case", 4, 608, 152}, {"IT-HS", "good-case", 4, 924, 231}, {"PBFT (bounded)", "good-case", 4, 396, 99},
		{"TetraBFT", "view-change", 4, 1628, 407}, {"PBFT (bounded)", "view-change", 4, 1612, 403},
		{"TetraBFT", "good-case", 7, 1820, 260}, {"IT-HS", "good-case", 7, 2772, 396}, {"PBFT (bounded)", "good-case", 7, 1155, 165},
		{"TetraBFT", "view-change", 7, 4802, 686}, {"PBFT (bounded)", "view-change", 7, 5502, 786},
		{"TetraBFT", "good-case", 10, 3680, 368}, {"IT-HS", "good-case", 10, 5610, 561}, {"PBFT (bounded)", "good-case", 10, 2310, 231},
		{"TetraBFT", "view-change", 10, 9650, 965}, {"PBFT (bounded)", "view-change", 10, 12650, 1265},
		{"TetraBFT", "good-case", 13, 6188, 476}, {"IT-HS", "good-case", 13, 9438, 726}, {"PBFT (bounded)", "good-case", 13, 3861, 297},
		{"TetraBFT", "view-change", 13, 16172, 1244}, {"PBFT (bounded)", "view-change", 13, 23920, 1840},
		{"TetraBFT", "good-case", 16, 9344, 584}, {"IT-HS", "good-case", 16, 14256, 891}, {"PBFT (bounded)", "good-case", 16, 5808, 363},
		{"TetraBFT", "view-change", 16, 24368, 1523}, {"PBFT (bounded)", "view-change", 16, 40176, 2511},
	} {
		labels := fmt.Sprintf("nodes=%d protocol=%s faults=%s", r.n, protoOf[r.proto], faultOf[r.scenario])
		what := fmt.Sprintf("E2 %s %s n=%d", r.proto, r.scenario, r.n)
		add(what+" total", r.total, func() float64 { return b.stat(t, "paper-e2", labels, "max_traffic") })
		add(what+" per node", r.perNode, func() float64 {
			return math.Floor(b.stat(t, "paper-e2", labels, "max_traffic") / float64(r.n))
		})
	}

	// E3: storage after 6 failed views.
	for proto, bytes := range map[string]float64{"tetrabft": 36, "it-hotstuff": 21, "pbft": 21, "pbft-unbounded": 446} {
		labels := "protocol=" + proto + " faults=suppress-proposals<6"
		add("E3 storage "+proto, bytes, func() float64 { return b.stat(t, "paper-e3", labels, "max_storage") })
	}

	// E4: recovery from the 9Δ timeout to the decision.
	for _, r := range []struct {
		proto    string
		delta    int
		recovery float64
	}{
		{"tetrabft", 10, 7}, {"it-hotstuff", 10, 9}, {"it-hotstuff-blog", 10, 15}, {"pbft", 10, 7},
		{"tetrabft", 20, 7}, {"it-hotstuff", 20, 9}, {"it-hotstuff-blog", 20, 25}, {"pbft", 20, 7},
		{"tetrabft", 50, 7}, {"it-hotstuff", 50, 9}, {"it-hotstuff-blog", 50, 55}, {"pbft", 50, 7},
	} {
		labels := fmt.Sprintf("delta=%d protocol=%s", r.delta, r.proto)
		add("E4 recovery "+labels, r.recovery, func() float64 {
			return b.stat(t, "paper-e4", labels, "max_latency") - 9*delta("paper-e4", labels)
		})
	}

	// E5: Figure 2. A lone block finalizes when the first block of the
	// 20-slot pipeline does; the interval is (last − first)/(slots − 1).
	first := func() float64 { return b.stat(t, "paper-e5", "slots=1", "max_last_decision") }
	last := func() float64 { return b.stat(t, "paper-e5", "slots=20", "max_last_decision") }
	single := func() float64 { return b.stat(t, "paper-e1", "protocol=tetrabft faults=none", "max_latency") }
	interval := func() float64 { return (last() - first()) / (b.stat(t, "paper-e5", "slots=20", "min_finalized") - 1) }
	add("E5 slots finalized", 20, func() float64 { return b.stat(t, "paper-e5", "slots=20", "min_finalized") })
	add("E5 first finalized at", 5, first)
	add("E5 last finalized at", 24, last)
	add("E5 delays per block", 1, interval)
	add("E5 single-shot latency", 5, single)
	add("E5 throughput speedup", 5, func() float64 { return single() / interval() })

	// E6: Figure 3.
	add("E6 aborted in-flight slots", 4, func() float64 { return b.stat(t, "paper-e6", "(base)", "max_aborted_slots") })
	add("E6 paper bound on aborted slots", 5, func() float64 { return b.bound(t, "paper-e6", "max_aborted_slots <=") })
	add("E6 view-change broadcast at", 90, func() float64 {
		return firstTrace(b.replay(t, "paper-e6", "(base)"), "view-change", 0)
	})
	add("E6 new-view notarization at", 94, func() float64 {
		return firstTrace(b.replay(t, "paper-e6", "(base)"), "notarize", 1)
	})
	add("E6 recovery ticks", 4, func() float64 { return b.stat(t, "paper-e6", "(base)", "max_vc_recovery") })
	add("E6 5Δ bound", 50, func() float64 { return b.bound(t, "paper-e6", "max_vc_recovery <=") })
	add("E6 slots finalized overall", 6, func() float64 { return b.stat(t, "paper-e6", "(base)", "min_finalized") })

	// E7: Section 5.
	add("E7 bounded BFS states", 3313, func() float64 { return float64(b.e7.BFSStates) })
	add("E7 BFS truncated", 1, func() float64 { return map[bool]float64{true: 1}[b.e7.BFSTruncated] })
	add("E7 guided-walk states", 2430, func() float64 { return float64(b.e7.WalkStates) })
	add("E7 induction samples", 60, func() float64 { return float64(b.e7.InductionSamples) })
	add("E7 induction steps", 4134, func() float64 { return float64(b.e7.InductionSteps) })
	add("E7 liveness fixpoint runs", 10, func() float64 { return float64(b.e7.LivenessRuns) })
	add("E7 violations", 0, func() float64 { return float64(b.e7.Violations) })

	// E8: worst recovery is the latest decision minus GST; the bound is the
	// assert's, minus GST.
	gst := func() float64 { return float64(b.cell(t, "paper-e8", "(base)").Scenario.Network.GST) }
	add("E8 seeds", 10, func() float64 { return float64(b.sweeps["paper-e8"].Replicates) })
	add("E8 Δ", 10, func() float64 { return delta("paper-e8", "(base)") })
	add("E8 worst post-GST recovery", 37, func() float64 { return b.stat(t, "paper-e8", "(base)", "max_last_decision") - gst() })
	add("E8 analysis bound", 117, func() float64 { return b.bound(t, "paper-e8", "max_last_decision <=") - gst() })
	add("E8 all decided", 4, func() float64 { return b.stat(t, "paper-e8", "(base)", "min_decided") })
	add("E8 all agreed (failed replicates)", 0, func() float64 { return float64(b.cell(t, "paper-e8", "(base)").Failures) })

	// The ablation: the good case printed node 0's decision, which lies
	// between the first and last decision the sweep reports; it is
	// reproduced from the cell's scenario.
	for _, r := range []struct {
		factor     int
		good       float64 // node 0's decision; -1 = livelock
		crashAfter float64
	}{{2, -1, 27}, {5, 37, 57}, {9, 37, 97}, {18, 37, 187}} {
		good := fmt.Sprintf("timeout_factor=%d delay=uniform[5,10] faults=none", r.factor)
		crash := fmt.Sprintf("timeout_factor=%d delay=constant 1 faults=silent@0", r.factor)
		if r.good < 0 {
			add("ablation livelock "+good, 0, func() float64 { return b.stat(t, "paper-ablation", good, "count_latency") })
		} else {
			add("ablation node 0 decides "+good, r.good, func() float64 {
				d, ok := b.replay(t, "paper-ablation", good).Decision(0, 0)
				if !ok {
					return -1
				}
				return float64(d.At)
			})
			add("ablation max view "+good, 0, func() float64 { return b.stat(t, "paper-ablation", good, "max_max_view") })
		}
		add("ablation crash "+crash, r.crashAfter, func() float64 { return b.stat(t, "paper-ablation", crash, "max_latency") })
	}

	// E10: Tx/1000 ticks was printed to one decimal.
	for _, r := range []struct {
		batch            int
		txs, ticks, tput float64
		p50, p99, window float64
	}{
		{1, 30, 34, 882.4, 19, 34, 2}, {4, 120, 34, 3529.4, 19, 33, 2},
		{16, 480, 34, 14117.6, 17, 30, 2}, {64, 1920, 34, 56470.6, 10, 16, 2},
	} {
		labels := fmt.Sprintf("batch_size=%d", r.batch)
		add("E10 decided txs "+labels, r.txs, func() float64 { return b.stat(t, "paper-e10", labels, "min_decided_txs") })
		add("E10 ticks "+labels, r.ticks, func() float64 { return b.stat(t, "paper-e10", labels, "max_last_decision") })
		rows = append(rows, row{"E10 tx/1000 ticks " + labels, r.tput, 0.05, func() float64 {
			return b.stat(t, "paper-e10", labels, "mean_tx_throughput")
		}})
		add("E10 p50 "+labels, r.p50, func() float64 { return b.stat(t, "paper-e10", labels, "max_tx_p50") })
		add("E10 p99 "+labels, r.p99, func() float64 { return b.stat(t, "paper-e10", labels, "max_tx_p99") })
		add("E10 window "+labels, r.window, func() float64 {
			return float64(b.cell(t, "paper-e10", labels).Scenario.Workload.Window)
		})
	}

	// E11: the propose→finalize row of each decomposition. The other stage
	// rows are not sweep metrics; tetrabft-sim -v prints them for the
	// cell's scenario.
	add("E11 good propose->finalize p50", 5, func() float64 { return b.stat(t, "paper-e11", "faults=none", "max_stage_e2e_p50") })
	add("E11 good propose->finalize p99", 5, func() float64 { return b.stat(t, "paper-e11", "faults=none", "max_stage_e2e_p99") })
	add("E11 crash propose->finalize p50", 94, func() float64 { return b.stat(t, "paper-e11", "faults=silent@0", "max_stage_e2e_p50") })
	add("E11 crash propose->finalize p99", 96, func() float64 { return b.stat(t, "paper-e11", "faults=silent@0", "max_stage_e2e_p99") })

	for _, r := range rows {
		if got := r.got(); math.Abs(got-r.want) > r.tol {
			t.Errorf("%s: the snapshot gives %g, the old output %g", r.what, got, r.want)
		}
	}
}
