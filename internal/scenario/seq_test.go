package scenario

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"tetrabft/internal/sim"
	"tetrabft/internal/workload"
)

func seqScenario(p Protocol) Scenario {
	return Scenario{
		Name:     "seq-" + string(p),
		Protocol: p,
		Nodes:    4,
		Workload: WorkloadSpec{
			Slots:   40,
			TxCount: 100,
			TxRate:  100,
		},
		Stop:    StopSpec{Horizon: 6000},
		Collect: CollectSpec{Chain: true},
	}
}

// TestSeqBaselinesAtOfferedLoad drives both chained single-shot baselines
// through the offered-load stream: transactions must decide, the chain must
// carry them, and the run must be deterministic.
func TestSeqBaselinesAtOfferedLoad(t *testing.T) {
	for _, proto := range []Protocol{PBFTMulti, ITHotStuffMulti} {
		t.Run(string(proto), func(t *testing.T) {
			sc := seqScenario(proto)
			res, err := Run(sc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.OfferedTxs != 100 {
				t.Fatalf("OfferedTxs = %d, want 100", res.OfferedTxs)
			}
			if res.DecidedTxs == 0 {
				t.Fatal("no transactions decided")
			}
			carried := 0
			for _, b := range res.Chain {
				carried += b.NumTxs()
			}
			if carried != res.DecidedTxs {
				t.Fatalf("DecidedTxs %d but chain carries %d", res.DecidedTxs, carried)
			}
			if res.TxLatencyP50 <= 0 || res.TxLatencyP99 < res.TxLatencyP50 {
				t.Fatalf("bad percentiles p50=%d p99=%d", res.TxLatencyP50, res.TxLatencyP99)
			}
			if len(res.Finalized) != 4 {
				t.Fatalf("Finalized reports %d nodes, want 4", len(res.Finalized))
			}
			again, err := Run(sc)
			if err != nil {
				t.Fatalf("rerun: %v", err)
			}
			ja, _ := json.Marshal(res)
			jb, _ := json.Marshal(again)
			if string(ja) != string(jb) {
				t.Fatal("two identical seq runs diverged")
			}
		})
	}
}

// TestSeqArrivalProcess runs the PBFT row under a Poisson stream — the
// protocol-shootout shape.
func TestSeqArrivalProcess(t *testing.T) {
	sc := seqScenario(PBFTMulti)
	sc.Workload.TxRate = 0
	sc.Workload.Arrival = &workload.ArrivalSpec{Process: workload.ProcessPoisson, Rate: 100}
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.DecidedTxs == 0 {
		t.Fatal("no transactions decided under the arrival process")
	}
}

// TestSeqSilentLeader checks that a silent node 0 (the first leader) costs
// view changes but not liveness or transactions.
func TestSeqSilentLeader(t *testing.T) {
	sc := seqScenario(PBFTMulti)
	sc.Workload.Slots = 10
	sc.Faults = []FaultSpec{{Type: FaultSilent, Node: 0}}
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.DecidedTxs == 0 {
		t.Fatal("silent leader starved the offered load")
	}
	if res.MaxView == 0 {
		t.Fatal("silent first leader must force view changes")
	}
	if len(res.Finalized) != 3 {
		t.Fatalf("Finalized reports %d nodes, want 3 honest", len(res.Finalized))
	}
}

// TestSeqHorizonBacklog pins the saturation signal: a horizon too short for
// the stream leaves OfferedTxs − DecidedTxs > 0.
func TestSeqHorizonBacklog(t *testing.T) {
	sc := seqScenario(PBFTMulti)
	sc.Workload.TxCount = 500
	sc.Workload.TxRate = 2000
	sc.Workload.BatchSize = 4
	sc.Stop.Horizon = 300
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.DecidedTxs >= res.OfferedTxs {
		t.Fatalf("expected backlog under a tight horizon, decided %d of %d", res.DecidedTxs, res.OfferedTxs)
	}
}

// TestSeqSlotErrorLabel checks that a failing slot run comes back labelled
// with the chained scenario and the slot, its cause still matchable.
func TestSeqSlotErrorLabel(t *testing.T) {
	p, err := seqScenario(PBFTMulti).compile()
	if err != nil {
		t.Fatal(err)
	}
	p.sc.Network.EventBudget = 10 // refused on a chained spec, honoured by a slot run
	_, err = runSeq(p)
	if !errors.Is(err, sim.ErrEventBudget) || !strings.HasPrefix(err.Error(), `scenario "seq-pbft-multi" slot 0: sim:`) {
		t.Fatalf("err = %v, want the slot-labelled event-budget error", err)
	}
}

// TestSeqValidation covers the chained-baseline restrictions.
func TestSeqValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"no slots", func(sc *Scenario) { sc.Workload.Slots = 0 }, "scenario: protocol \"pbft-multi\" needs workload.slots"},
		{"no horizon", func(sc *Scenario) { sc.Stop.Horizon = 0 }, "scenario: protocol \"pbft-multi\" needs stop.horizon (the shared clock's budget)"},
		{"window", func(sc *Scenario) { sc.Workload.Window = 2 }, "scenario: protocol \"pbft-multi\" supports only the offered-load workload (no window/max_slot/transactions)"},
		{"gst", func(sc *Scenario) { sc.Network.GST = 100 }, "scenario: protocol \"pbft-multi\" does not support gst/drop_before_gst/event_budget"},
		{"equivocator", func(sc *Scenario) {
			sc.Faults = []FaultSpec{{Type: FaultEquivocator, Node: 1}}
		}, "scenario: protocol \"pbft-multi\" supports only silent faults, not \"equivocator\""},
		{"stages", func(sc *Scenario) { sc.Collect.Stages = true }, "scenario: protocol \"pbft-multi\" does not collect traces, stages or metrics"},
		{"tcp engine", func(sc *Scenario) {
			sc.Engine = EngineTCP
			sc.Stop = StopSpec{WallClockMS: 1000}
		}, "scenario: engine \"tcp\" supports only protocol \"tetrabft-multi\""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := seqScenario(PBFTMulti)
			tc.mutate(&sc)
			_, err := Run(sc)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error %v, want %q", err, tc.want)
			}
		})
	}
}
