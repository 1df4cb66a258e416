package sweep

import (
	"cmp"
	"encoding/json"

	"tetrabft/internal/par"
	"tetrabft/internal/scenario"
	"tetrabft/internal/trace"
	"tetrabft/internal/types"
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
//	tx_throughput  — decided transactions per 1000 ticks to last_decision
//	anchor_epochs — anchor epochs committed across shards (sharded runs)
//	anchor_p99    — anchor-commit latency p99 (sharded runs)
//	stage_e2e_p50, stage_e2e_p99 — propose→finalize stage-span percentiles,
//	            present only when the cell's spec sets collect.stages
//	last_decision — the latest recorded decision, over every node and slot
//	            (absent in sharded and TCP runs, which record none)
//	aborted_slots — the most slots the probe, the first honest multi-shot
//	            replica, moved to view ≥ 1 at one instant (collect.trace)
//	vc_recovery — the first notarization in view ≥ 1 minus the first
//	            view-change broadcast (collect.trace)
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
	LastDecision int64   `json:"last_decision,omitempty"`
	AbortedSlots int64   `json:"aborted_slots,omitempty"`
	VCRecovery   int64   `json:"vc_recovery,omitempty"`
	Error        string  `json:"error,omitempty"`

	// stageObserved and traced mark a replicate that carried the stage
	// breakdown or the trace, so a legitimate zero still becomes a sample
	// (last_decision and vc_recovery are never 0: each needs a message).
	stageObserved, traced bool
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
	rep = RepResult{
		Seed: seed, Latency: res.FirstDecisionAt, Decided: res.DecidedCount,
		Traffic: res.TotalSentBytes, Storage: res.MaxStorageBytes, MaxView: res.MaxView,
		Events: res.Events, Dropped: res.Dropped,
		DecidedTxs: res.DecidedTxs, OfferedTxs: res.OfferedTxs,
		Backlog: max(res.OfferedTxs-res.DecidedTxs, 0),
		TxP50:   res.TxLatencyP50, TxP99: res.TxLatencyP99,
		AnchorEpochs: res.AnchorEpochs, AnchorP99: res.AnchorLatencyP99,
		Error: rep.Error,
	}
	for i, f := range res.Finalized {
		if i == 0 || int64(f.Slot) < rep.Finalized {
			rep.Finalized = int64(f.Slot)
		}
	}
	// Sharded runs fold per-shard: res.Finalized is empty, so take the
	// laggard shard's finalized slot instead.
	for i, s := range res.Shards {
		if i == 0 || s.Finalized < rep.Finalized {
			rep.Finalized = s.Finalized
		}
	}
	// Throughput runs to the last decision: the queue can drain up to 9Δ
	// later, on stale timers that change nothing. Runs that report no last
	// decision (sharded, TCP) fall back to the run's end.
	rep.LastDecision = res.LastDecisionAt
	if end := cmp.Or(rep.LastDecision, res.FinishedAt); end > 0 && res.DecidedTxs > 0 {
		rep.TxThroughput = float64(res.DecidedTxs) * 1000 / float64(end)
	}
	if d, ok := res.StageDist(trace.StageProposeToFinalize); ok {
		rep.StageE2EP50, rep.StageE2EP99 = d.P50, d.P99
		rep.stageObserved = true
	}
	if len(res.Trace) > 0 && len(res.Finalized) > 0 {
		rep.foldTrace(res.Trace, res.Finalized[0].Node)
	}
	return rep
}

// foldTrace reads Figure 3's view change off a multi-shot trace: the most
// slots the probe moved to view ≥ 1 at one instant (each such batch is one
// view change's aborted in-flight blocks), and the time from the first
// view-change broadcast to the first notarization in a new view.
func (rep *RepResult) foldTrace(events []trace.Event, probe types.NodeID) {
	rep.traced = true
	// The trace is in time order, so one instant's events are adjacent.
	var aborted map[types.Slot]bool
	at, vcAt, notarizedAt := types.Time(-1), types.Time(-1), types.Time(-1)
	for _, ev := range events {
		switch {
		case ev.Type == "enter-view" && ev.View >= 1 && ev.Node == probe:
			if ev.Time != at {
				at, aborted = ev.Time, make(map[types.Slot]bool)
			}
			aborted[ev.Slot] = true
			rep.AbortedSlots = max(rep.AbortedSlots, int64(len(aborted)))
		case ev.Type == "view-change" && vcAt < 0:
			vcAt = ev.Time
		case ev.Type == "notarize" && ev.View >= 1 && notarizedAt < 0:
			notarizedAt = ev.Time
		}
	}
	if vcAt >= 0 && notarizedAt >= 0 {
		rep.VCRecovery = int64(notarizedAt - vcAt)
	}
}

// Run executes the sweep grid — cells × replicates, in parallel — and
// aggregates per-cell statistics and the assertion verdict. Replicate-level
// run errors (agreement violations, exhausted budgets) do not abort the
// sweep; they fail the affected cell. Only an invalid spec is an error.
func Run(sw Sweep) (*Result, error) {
	p, err := sw.compile()
	if err != nil {
		return nil, err
	}

	jobs := make([]scenario.Scenario, 0, len(p.cells)*p.replicates)
	for _, cell := range p.cells {
		for r := range p.replicates {
			sc := cell.sc
			sc.Seed = p.seedBase + int64(r)
			jobs = append(jobs, sc)
		}
	}
	type out struct {
		res *scenario.Result
		err error
	}
	outs, _ := par.Map(jobs, func(_ int, sc scenario.Scenario) (out, error) {
		res, err := scenario.Run(sc)
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
		cr := CellResult{Index: c, Labels: cell.labels, Scenario: cell.sc}
		cr.Scenario.Seed = p.seedBase
		samples := make(map[string][]float64, len(metrics))
		for r := 0; r < p.replicates; r++ {
			o := outs[c*p.replicates+r]
			rep := repOf(p.seedBase+int64(r), o.res, o.err)
			cr.Reps = append(cr.Reps, rep)
			if rep.Error != "" {
				cr.Failures++
				if cr.FirstError == "" {
					cr.FirstError = rep.Error
				}
				continue
			}
			for _, m := range metrics {
				if v, ok := m.value(&rep); ok {
					samples[m.name] = append(samples[m.name], v)
				}
			}
		}
		cr.Stats = make(map[string]Dist, len(samples))
		for name, vals := range samples {
			cr.Stats[name] = dist(vals)
		}
		cr.Pass = cr.Failures == 0
		for _, as := range p.asserts {
			if !as.selects(cr.Labels) {
				continue
			}
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
