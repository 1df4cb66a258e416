package bench

import (
	"fmt"
	"io"

	"tetrabft/internal/par"
	"tetrabft/internal/scenario"
)

// ThroughputRow is one batch-size measurement of the offered-load pipeline:
// a saturating transaction stream pushed through a fixed slot budget, with
// the per-block batch cap as the varied knob.
type ThroughputRow struct {
	BatchSize   int
	Window      int
	DecidedTxs  int
	FinishedAt  int64   // ticks until the last replica finalized the chain
	TxPerKTicks float64 // decided transactions per 1000 ticks
	P50         int64   // per-tx commit latency, ticks
	P99         int64
}

// throughputScenario is the fixed workload behind every row: 30 pipelined
// slots, 4000 transactions offered at a saturating rate, so the batch cap
// is the binding constraint on decided-tx throughput.
func throughputScenario(batch, window int) scenario.Scenario {
	return scenario.Scenario{
		Protocol: scenario.TetraBFTMulti,
		Nodes:    4,
		Seed:     1,
		Workload: scenario.WorkloadSpec{
			Slots:     30,
			TxCount:   4000,
			TxRate:    10000,
			BatchSize: batch,
			Window:    window,
		},
		Stop: scenario.StopSpec{Horizon: 6000},
	}
}

// Throughput measures decided-transaction throughput across batch caps
// (window 2, the modest pipeline). The rows demonstrate the batching claim:
// the consensus message cost per slot is constant, so throughput scales
// with the batch cap until the offered load is exhausted.
func Throughput(batches []int) ([]ThroughputRow, error) {
	const window = 2
	return par.Map(batches, func(_ int, batch int) (ThroughputRow, error) {
		res, err := scenario.Run(throughputScenario(batch, window))
		if err != nil {
			return ThroughputRow{}, fmt.Errorf("bench: throughput batch %d: %w", batch, err)
		}
		row := ThroughputRow{
			BatchSize:  batch,
			Window:     window,
			DecidedTxs: res.DecidedTxs,
			FinishedAt: lastDecisionAt(res),
			P50:        res.TxLatencyP50,
			P99:        res.TxLatencyP99,
		}
		if row.FinishedAt > 0 {
			row.TxPerKTicks = float64(res.DecidedTxs) * 1000 / float64(row.FinishedAt)
		}
		return row, nil
	})
}

// lastDecisionAt is when the last replica finalized its last slot. The
// run's own FinishedAt is when the event queue drained, which can trail the
// last decision by pending view timers that change nothing.
func lastDecisionAt(res *scenario.Result) int64 {
	var last int64
	for _, d := range res.Decisions {
		last = max(last, d.At)
	}
	return last
}

// WriteThroughput renders the throughput experiment.
func WriteThroughput(w io.Writer, rows []ThroughputRow) {
	fmt.Fprintf(w, "%-10s %-7s %12s %10s %14s %9s %9s\n",
		"Batch cap", "Window", "Decided txs", "Ticks", "Tx/1000 ticks", "p50", "p99")
	for _, row := range rows {
		fmt.Fprintf(w, "%-10d %-7d %12d %10d %14.1f %9d %9d\n",
			row.BatchSize, row.Window, row.DecidedTxs, row.FinishedAt,
			row.TxPerKTicks, row.P50, row.P99)
	}
}
