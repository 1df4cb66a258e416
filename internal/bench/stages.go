package bench

import (
	"fmt"
	"io"

	"tetrabft/internal/scenario"
	"tetrabft/internal/types"
)

// StageRow is one protocol stage's latency distribution, folded from the
// end-to-end trace by the scenario layer's shared stage fold.
type StageRow struct {
	Stage string
	Count int
	P50   int64 // ticks
	P99   int64
}

// StagesResult decomposes good-case and crashed-leader latency by protocol
// stage. The good case pins where the paper's ~3δ pipelined finalization
// spends its delays; the crashed-leader case adds the view-change dwell
// the 9Δ timeout analysis (E8) bounds.
type StagesResult struct {
	Good  []StageRow
	Crash []StageRow
}

// stageScenario is the fixed workload behind both decompositions: 20
// pipelined slots at unit delay, with an optionally-crashed first leader.
func stageScenario(silent bool) scenario.Scenario {
	sc := scenario.Scenario{
		Protocol: scenario.TetraBFTMulti,
		Nodes:    4,
		Seed:     1,
		Delta:    10,
		Workload: scenario.WorkloadSpec{MaxSlot: 20},
		Stop:     scenario.StopSpec{Horizon: 20000},
		Collect:  scenario.CollectSpec{Stages: true},
	}
	if silent {
		sc.Faults = append(sc.Faults, scenario.FaultSpec{Type: scenario.FaultSilent, Node: types.NodeID(0)})
	}
	return sc
}

// StageDecomposition runs the good-case and crashed-leader multishot
// workloads and returns their per-stage latency breakdowns.
func StageDecomposition() (StagesResult, error) {
	var out StagesResult
	for _, c := range []struct {
		silent bool
		dst    *[]StageRow
	}{{false, &out.Good}, {true, &out.Crash}} {
		res, err := scenario.Run(stageScenario(c.silent))
		if err != nil {
			return StagesResult{}, fmt.Errorf("bench: stage decomposition (silent=%v): %w", c.silent, err)
		}
		for _, d := range res.Stages {
			*c.dst = append(*c.dst, StageRow{Stage: d.Stage, Count: d.Count, P50: d.P50, P99: d.P99})
		}
	}
	return out, nil
}

// WriteStages renders the stage-decomposition experiment.
func WriteStages(w io.Writer, res StagesResult) {
	for _, c := range []struct {
		title string
		rows  []StageRow
	}{{"good case (unit delay)", res.Good}, {"crashed first leader", res.Crash}} {
		fmt.Fprintf(w, "%s:\n", c.title)
		fmt.Fprintf(w, "  %-24s %6s %8s %8s\n", "Stage", "Count", "p50", "p99")
		for _, row := range c.rows {
			fmt.Fprintf(w, "  %-24s %6d %8d %8d\n", row.Stage, row.Count, row.P50, row.P99)
		}
	}
}
