package bench

import (
	"testing"

	"tetrabft/internal/scenario"
)

// TestThroughputBatchScaling pins the batching claim: with the slot budget
// and offered load fixed, decided-tx throughput strictly increases with the
// batch cap, while the consensus run time (ticks to finalize the chain)
// stays flat — batching is free at the protocol layer.
func TestThroughputBatchScaling(t *testing.T) {
	rows, err := Throughput([]int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, row := range rows {
		if row.DecidedTxs == 0 || row.TxPerKTicks == 0 {
			t.Fatalf("row %d decided nothing: %+v", i, row)
		}
		// Ticks is the last decision's instant, not the drain of the queue.
		res, err := scenario.Run(throughputScenario(row.BatchSize, row.Window))
		if err != nil {
			t.Fatal(err)
		}
		var last int64
		for _, d := range res.Decisions {
			last = max(last, d.At)
		}
		if row.FinishedAt != last {
			t.Errorf("batch %d: FinishedAt %d, want the last decision's time %d", row.BatchSize, row.FinishedAt, last)
		}
		if i > 0 {
			if row.TxPerKTicks <= rows[i-1].TxPerKTicks {
				t.Errorf("throughput not increasing: batch %d %.1f vs batch %d %.1f",
					rows[i-1].BatchSize, rows[i-1].TxPerKTicks, row.BatchSize, row.TxPerKTicks)
			}
			if row.FinishedAt != rows[i-1].FinishedAt {
				t.Errorf("batching changed consensus run time: %d vs %d ticks",
					rows[i-1].FinishedAt, row.FinishedAt)
			}
		}
		// Every block carries at most the cap: the decided count is bounded
		// by slots × cap.
		if row.DecidedTxs > 30*row.BatchSize {
			t.Errorf("batch %d decided %d txs, exceeds slot budget", row.BatchSize, row.DecidedTxs)
		}
	}
}
