package sweep

import (
	"encoding/json"

	"tetrabft/internal/par"
	"tetrabft/internal/scenario"
	"tetrabft/internal/trace"
)

// Result is what a sweep run measured: one CellResult per grid cell, in
// grid order, plus the overall verdict. Marshaling a Result produces
// byte-identical JSON for identical runs (slices are in grid/replicate
// order, map keys sort, floats are exact).
type Result struct {
	// Schema is always "tetrabft-sweep/v1".
	Schema string `json:"schema"`
	// Name echoes the sweep's name.
	Name string `json:"name,omitempty"`
	// Replicates is the number of seed replicates per cell.
	Replicates int `json:"replicates"`
	// Asserts echoes the SLO clauses every cell was held to.
	Asserts []string `json:"asserts,omitempty"`
	// Cells holds one result per grid cell, in grid (row-major) order.
	Cells []CellResult `json:"cells"`
	// FailedCells counts cells whose Pass is false.
	FailedCells int `json:"failed_cells"`
	// Pass is true when every cell passed (no run failures, no violated
	// assertions).
	Pass bool `json:"pass"`
}

// CellResult is one grid cell's measurements.
type CellResult struct {
	// Index is the cell's position in grid order.
	Index int `json:"index"`
	// Labels names the axis values that produced this cell.
	Labels []Label `json:"labels,omitempty"`
	// Scenario is the fully-applied spec at the cell's replicate-0 seed;
	// running it standalone reproduces the first replicate exactly.
	Scenario scenario.Scenario `json:"scenario"`
	// Reps holds the raw per-replicate measurements, in seed order.
	Reps []RepResult `json:"replicates"`
	// Stats aggregates the replicate metrics; see RepResult for keys.
	Stats map[string]Dist `json:"stats,omitempty"`
	// Failures counts replicates whose run errored (agreement violation,
	// exhausted event budget); their metrics are excluded from Stats.
	Failures int `json:"failures,omitempty"`
	// FirstError is the lowest-seed failure's message.
	FirstError string `json:"first_error,omitempty"`
	// FailedAsserts lists violated assertions with the offending value.
	FailedAsserts []string `json:"failed_asserts,omitempty"`
	// Pass is true when the cell had no failures and no violated asserts.
	Pass bool `json:"pass"`
}

// Label is one axis coordinate of a cell.
type Label struct {
	Field string `json:"field"`
	Value string `json:"value"`
}

// LabelString renders the cell's coordinates as "field=value ...".
func (c CellResult) LabelString() string { return labelString(c.Labels) }

// RepResult is one replicate's raw metrics, the same numbers a standalone
// scenario.Run of the cell's spec at Seed reports:
//
//	latency   — FirstDecisionAt (slot-0 decision latency; -1 = nobody)
//	decided   — how many nodes decided slot 0
//	traffic   — total bytes on the wire
//	storage   — max persistent footprint across honest nodes
//	max_view  — highest view an honest single-shot node reached
//	events    — processed simulator events
//	dropped   — messages lost to network or adversary
//	finalized — the laggard honest node's finalized slot (multi-shot);
//	            in sharded runs, the laggard shard's finalized slot
//	decided_txs — transactions on the reference finalized chain
//	offered_txs — the offered-load stream's length
//	backlog     — offered_txs − decided_txs: transactions the run left
//	            uncommitted, the capacity planner's saturation signal
//	tx_p50, tx_p99 — offered-load commit-latency percentiles, in ticks
//	tx_throughput  — decided transactions per 1000 ticks of run time
//	anchor_epochs — anchor epochs committed across shards (sharded runs)
//	anchor_p99    — anchor-commit latency p99 (sharded runs)
//	stage_e2e_p50, stage_e2e_p99 — propose→finalize stage-span percentiles,
//	            present only when the cell's spec sets collect.stages
type RepResult struct {
	Seed         int64   `json:"seed"`
	Latency      int64   `json:"latency"`
	Decided      int     `json:"decided"`
	Traffic      int64   `json:"traffic"`
	Storage      int64   `json:"storage"`
	MaxView      int64   `json:"max_view"`
	Events       int     `json:"events"`
	Dropped      int64   `json:"dropped"`
	Finalized    int64   `json:"finalized"`
	DecidedTxs   int     `json:"decided_txs"`
	OfferedTxs   int     `json:"offered_txs,omitempty"`
	Backlog      int     `json:"backlog,omitempty"`
	TxP50        int64   `json:"tx_p50"`
	TxP99        int64   `json:"tx_p99"`
	TxThroughput float64 `json:"tx_throughput"`
	AnchorEpochs int64   `json:"anchor_epochs,omitempty"`
	AnchorP99    int64   `json:"anchor_p99,omitempty"`
	StageE2EP50  int64   `json:"stage_e2e_p50,omitempty"`
	StageE2EP99  int64   `json:"stage_e2e_p99,omitempty"`
	Error        string  `json:"error,omitempty"`

	// stageObserved marks that the replicate carried a stage breakdown at
	// all, so a legitimate zero percentile still becomes a sample.
	stageObserved bool
}

// repOf extracts the replicate metrics from a scenario result (res may be
// nil when the run failed before producing one).
func repOf(seed int64, res *scenario.Result, err error) RepResult {
	rep := RepResult{Seed: seed, Latency: -1}
	if err != nil {
		rep.Error = err.Error()
	}
	if res == nil {
		return rep
	}
	rep.Latency = res.FirstDecisionAt
	rep.Decided = res.DecidedCount
	rep.Traffic = res.TotalSentBytes
	rep.Storage = res.MaxStorageBytes
	rep.MaxView = res.MaxView
	rep.Events = res.Events
	rep.Dropped = res.Dropped
	for i, f := range res.Finalized {
		if i == 0 || int64(f.Slot) < rep.Finalized {
			rep.Finalized = int64(f.Slot)
		}
	}
	// Sharded runs fold per-shard: res.Finalized is empty, so take the
	// laggard shard's finalized slot instead, plus the anchor metrics.
	for i, s := range res.Shards {
		if i == 0 || s.Finalized < rep.Finalized {
			rep.Finalized = s.Finalized
		}
	}
	rep.AnchorEpochs = res.AnchorEpochs
	rep.AnchorP99 = res.AnchorLatencyP99
	rep.DecidedTxs = res.DecidedTxs
	rep.OfferedTxs = res.OfferedTxs
	if b := res.OfferedTxs - res.DecidedTxs; b > 0 {
		rep.Backlog = b
	}
	rep.TxP50 = res.TxLatencyP50
	rep.TxP99 = res.TxLatencyP99
	if res.FinishedAt > 0 && res.DecidedTxs > 0 {
		rep.TxThroughput = float64(res.DecidedTxs) * 1000 / float64(res.FinishedAt)
	}
	if d, ok := res.StageDist(trace.StageProposeToFinalize); ok {
		rep.StageE2EP50, rep.StageE2EP99 = d.P50, d.P99
		rep.stageObserved = true
	}
	return rep
}

// Observer sees every replicate's full scenario result in grid order
// (cell-major, then seed order), after the parallel fan-out has been folded
// back — so observation order is deterministic at any GOMAXPROCS. res can
// carry partial measurements even when err is non-nil, and is nil only when
// the run failed before producing any.
type Observer func(cell, rep int, res *scenario.Result, err error)

// Run executes the sweep grid — cells × replicates, in parallel — and
// aggregates per-cell statistics and the assertion verdict. Replicate-level
// run errors (agreement violations, exhausted budgets) do not abort the
// sweep; they fail the affected cell. Only an invalid spec is an error.
func Run(sw Sweep) (*Result, error) { return RunObserved(sw, nil) }

// RunObserved is Run with an observer that receives every replicate's full
// scenario result — the hook the bench experiments use to read metrics the
// aggregated stats do not carry (per-node decision times).
func RunObserved(sw Sweep, observe Observer) (*Result, error) {
	p, err := sw.compile()
	if err != nil {
		return nil, err
	}

	type job struct {
		cell, rep int
		sc        scenario.Scenario
	}
	jobs := make([]job, 0, len(p.cells)*p.replicates)
	for c, cell := range p.cells {
		for r := 0; r < p.replicates; r++ {
			sc := cell.sc
			sc.Seed = p.seedBase + int64(r)
			jobs = append(jobs, job{cell: c, rep: r, sc: sc})
		}
	}
	type out struct {
		res *scenario.Result
		err error
	}
	outs, _ := par.Map(jobs, func(_ int, j job) (out, error) {
		res, err := scenario.Run(j.sc)
		return out{res: res, err: err}, nil
	})

	result := &Result{
		Schema:     Schema,
		Name:       sw.Name,
		Replicates: p.replicates,
		Asserts:    append([]string(nil), sw.Assert...),
		Pass:       true,
	}
	for c, cell := range p.cells {
		cr := CellResult{
			Index:    c,
			Labels:   cell.labels,
			Scenario: cell.sc,
			Pass:     true,
		}
		cr.Scenario.Seed = p.seedBase
		samples := make(map[string][]float64, len(metricNames))
		for r := 0; r < p.replicates; r++ {
			o := outs[c*p.replicates+r]
			if observe != nil {
				observe(c, r, o.res, o.err)
			}
			rep := repOf(p.seedBase+int64(r), o.res, o.err)
			cr.Reps = append(cr.Reps, rep)
			if rep.Error != "" {
				cr.Failures++
				if cr.FirstError == "" {
					cr.FirstError = rep.Error
				}
				continue
			}
			if rep.Latency >= 0 {
				samples["latency"] = append(samples["latency"], float64(rep.Latency))
			}
			samples["decided"] = append(samples["decided"], float64(rep.Decided))
			samples["traffic"] = append(samples["traffic"], float64(rep.Traffic))
			samples["storage"] = append(samples["storage"], float64(rep.Storage))
			samples["max_view"] = append(samples["max_view"], float64(rep.MaxView))
			samples["events"] = append(samples["events"], float64(rep.Events))
			samples["dropped"] = append(samples["dropped"], float64(rep.Dropped))
			samples["finalized"] = append(samples["finalized"], float64(rep.Finalized))
			samples["decided_txs"] = append(samples["decided_txs"], float64(rep.DecidedTxs))
			samples["offered_txs"] = append(samples["offered_txs"], float64(rep.OfferedTxs))
			samples["backlog"] = append(samples["backlog"], float64(rep.Backlog))
			samples["tx_p50"] = append(samples["tx_p50"], float64(rep.TxP50))
			samples["tx_p99"] = append(samples["tx_p99"], float64(rep.TxP99))
			samples["tx_throughput"] = append(samples["tx_throughput"], rep.TxThroughput)
			samples["anchor_epochs"] = append(samples["anchor_epochs"], float64(rep.AnchorEpochs))
			samples["anchor_p99"] = append(samples["anchor_p99"], float64(rep.AnchorP99))
			if rep.stageObserved {
				samples["stage_e2e_p50"] = append(samples["stage_e2e_p50"], float64(rep.StageE2EP50))
				samples["stage_e2e_p99"] = append(samples["stage_e2e_p99"], float64(rep.StageE2EP99))
			}
		}
		cr.Stats = make(map[string]Dist, len(samples))
		for name, vals := range samples {
			cr.Stats[name] = dist(vals)
		}
		if cr.Failures > 0 {
			cr.Pass = false
		}
		for _, as := range p.asserts {
			if err := as.eval(cr.Stats); err != nil {
				cr.FailedAsserts = append(cr.FailedAsserts, err.Error())
				cr.Pass = false
			}
		}
		if !cr.Pass {
			result.FailedCells++
			result.Pass = false
		}
		result.Cells = append(result.Cells, cr)
	}
	return result, nil
}

// MarshalIndent renders the result as indented JSON — the
// "tetrabft-sweep/v1" snapshot format, byte-identical for identical runs.
func (r *Result) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ParseResult decodes a tetrabft-sweep/v1 snapshot.
func ParseResult(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
