package sweep

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// metric is one replicate metric; see RepResult for what each measures.
type metric struct {
	name string
	// report lists the aggregates WriteMarkdown shows as columns.
	report []string
	// value reads the metric off a replicate; false means the replicate
	// has no sample of it.
	value func(r *RepResult) (float64, bool)
}

// metrics is the one list of replicate metrics: assertion names, cell
// samples, CSV rows and markdown columns all come from it, in this order.
var metrics = []metric{
	{"latency", []string{"mean", "p99"}, func(r *RepResult) (float64, bool) { return float64(r.Latency), r.Latency >= 0 }},
	{"decided", []string{"min"}, func(r *RepResult) (float64, bool) { return float64(r.Decided), true }},
	{"max_view", []string{"max"}, func(r *RepResult) (float64, bool) { return float64(r.MaxView), true }},
	{"traffic", []string{"mean"}, func(r *RepResult) (float64, bool) { return float64(r.Traffic), true }},
	{"storage", []string{"max"}, func(r *RepResult) (float64, bool) { return float64(r.Storage), true }},
	{"events", nil, func(r *RepResult) (float64, bool) { return float64(r.Events), true }},
	{"dropped", nil, func(r *RepResult) (float64, bool) { return float64(r.Dropped), true }},
	{"finalized", []string{"min"}, func(r *RepResult) (float64, bool) { return float64(r.Finalized), true }},
	{"decided_txs", []string{"min"}, func(r *RepResult) (float64, bool) { return float64(r.DecidedTxs), true }},
	{"offered_txs", nil, func(r *RepResult) (float64, bool) { return float64(r.OfferedTxs), true }},
	{"backlog", nil, func(r *RepResult) (float64, bool) { return float64(r.Backlog), true }},
	{"tx_p50", nil, func(r *RepResult) (float64, bool) { return float64(r.TxP50), true }},
	{"tx_p99", []string{"max"}, func(r *RepResult) (float64, bool) { return float64(r.TxP99), true }},
	{"tx_throughput", []string{"mean"}, func(r *RepResult) (float64, bool) { return r.TxThroughput, true }},
	{"anchor_epochs", nil, func(r *RepResult) (float64, bool) { return float64(r.AnchorEpochs), true }},
	{"anchor_p99", nil, func(r *RepResult) (float64, bool) { return float64(r.AnchorP99), true }},
	{"stage_e2e_p50", []string{"max"}, func(r *RepResult) (float64, bool) { return float64(r.StageE2EP50), r.stageObserved }},
	{"stage_e2e_p99", []string{"max"}, func(r *RepResult) (float64, bool) { return float64(r.StageE2EP99), r.stageObserved }},
	{"last_decision", []string{"max"}, func(r *RepResult) (float64, bool) { return float64(r.LastDecision), r.LastDecision > 0 }},
	{"aborted_slots", []string{"max"}, func(r *RepResult) (float64, bool) { return float64(r.AbortedSlots), r.traced }},
	{"vc_recovery", []string{"max"}, func(r *RepResult) (float64, bool) { return float64(r.VCRecovery), r.VCRecovery > 0 }},
}

// aggNames are the distribution aggregates usable in assertions.
var aggNames = []string{"mean", "stddev", "min", "max", "p50", "p99", "count"}

// assertion is one parsed SLO clause: [selector:] <agg>_<metric> <op>
// <bound>. A selector of axis labels limits the clause to the cells that
// carry every one of them.
type assertion struct {
	src    string
	sel    []Label
	agg    string
	metric string
	op     string
	bound  float64
}

// parseAssertion parses "p99_latency <= 9" or "protocol=pbft: max_latency
// == 3" into its clause. The metric may itself contain underscores
// (max_view), so the aggregate is matched as a prefix from the fixed set.
func parseAssertion(src string) (assertion, error) {
	as := assertion{src: src}
	clause := src
	if prefix, rest, ok := strings.Cut(src, ":"); ok {
		clause = rest
		toks := strings.Fields(prefix)
		if len(toks) == 0 || !strings.Contains(toks[0], "=") {
			return assertion{}, fmt.Errorf("sweep: assertion %q: selector wants field=value pairs", src)
		}
		// A token without "=" continues the previous value, so labels
		// with a space ("constant 1") can be selected.
		for _, tok := range toks {
			if field, value, ok := strings.Cut(tok, "="); ok {
				as.sel = append(as.sel, Label{Field: field, Value: value})
			} else {
				as.sel[len(as.sel)-1].Value += " " + tok
			}
		}
	}
	fields := strings.Fields(clause)
	if len(fields) != 3 {
		return assertion{}, fmt.Errorf("sweep: assertion %q: want `[field=value ...:] <agg>_<metric> <op> <number>`", src)
	}
	for _, agg := range aggNames {
		if strings.HasPrefix(fields[0], agg+"_") {
			as.agg = agg
			as.metric = fields[0][len(agg)+1:]
			break
		}
	}
	if as.agg == "" {
		return assertion{}, fmt.Errorf("sweep: assertion %q: unknown aggregate (want one of %s)", src, strings.Join(aggNames, "|"))
	}
	if !slices.ContainsFunc(metrics, func(m metric) bool { return m.name == as.metric }) {
		names := make([]string, len(metrics))
		for i, m := range metrics {
			names[i] = m.name
		}
		return assertion{}, fmt.Errorf("sweep: assertion %q: unknown metric %q (want one of %s)", src, as.metric, strings.Join(names, "|"))
	}
	if ops[fields[1]] == nil {
		return assertion{}, fmt.Errorf("sweep: assertion %q: unknown operator %q", src, fields[1])
	}
	as.op = fields[1]
	bound, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return assertion{}, fmt.Errorf("sweep: assertion %q: bad bound: %v", src, err)
	}
	as.bound = bound
	return as, nil
}

// selects reports whether the clause applies to a cell with these labels.
func (as assertion) selects(labels []Label) bool {
	for _, l := range as.sel {
		if !slices.Contains(labels, l) {
			return false
		}
	}
	return true
}

// checkSelector refuses a selector that names a field no axis varies or
// that matches no cell of the grid, so a typo cannot make a claim vacuous.
func (as assertion) checkSelector(axes []Axis, cells []cellPlan) error {
	for _, l := range as.sel {
		if !slices.ContainsFunc(axes, func(a Axis) bool { return a.Field == l.Field }) {
			return fmt.Errorf("sweep: assertion %q: selector field %q is not an axis", as.src, l.Field)
		}
	}
	if !slices.ContainsFunc(cells, func(c cellPlan) bool { return as.selects(c.labels) }) {
		return fmt.Errorf("sweep: assertion %q: selector matches no cell", as.src)
	}
	return nil
}

// eval applies the assertion to one cell's stats. A metric with no samples
// fails the assertion — an SLO over data that does not exist is not met —
// except for the count aggregate, which evaluates the zero honestly so
// "count_latency == 0" can pin an expected livelock.
func (as assertion) eval(stats map[string]Dist) error {
	d := stats[as.metric] // zero Dist when the metric has no samples
	if as.agg != "count" && d.Count == 0 {
		return fmt.Errorf("%s: no %s samples", as.src, as.metric)
	}
	if v := d.agg(as.agg); !ops[as.op](v, as.bound) {
		return fmt.Errorf("%s: got %g", as.src, v)
	}
	return nil
}

// ops are the assertion grammar's comparison operators.
var ops = map[string]func(v, bound float64) bool{
	"<=": func(v, b float64) bool { return v <= b },
	"<":  func(v, b float64) bool { return v < b },
	">=": func(v, b float64) bool { return v >= b },
	">":  func(v, b float64) bool { return v > b },
	"==": func(v, b float64) bool { return v == b },
	"!=": func(v, b float64) bool { return v != b },
}
