package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// column is one markdown report column: a metric and an aggregate.
type column struct{ metric, agg string }

// columns returns the report columns that actually carry data somewhere in
// the result, so single-shot sweeps do not render an empty finalized column.
func columns(r *Result) []column {
	var out []column
	for _, m := range metrics {
		for _, agg := range m.report {
			for _, c := range r.Cells {
				if d, ok := c.Stats[m.name]; ok && d.Count > 0 && (d.Max != 0 || m.name == "latency" || m.name == "decided") {
					out = append(out, column{m.name, agg})
					break
				}
			}
		}
	}
	return out
}

// fmtG renders a float the way the JSON snapshot does (shortest exact form).
func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteMarkdown renders the result as a GitHub-flavored markdown table, one
// row per cell. Output is deterministic: identical runs render identically.
func WriteMarkdown(w io.Writer, r *Result) {
	fmt.Fprintf(w, "## sweep: %s\n\n", orUnnamed(r.Name))
	fmt.Fprintf(w, "replicates per cell: %d\n\n", r.Replicates)
	cols := columns(r)
	fmt.Fprint(w, "| cell |")
	for _, c := range cols {
		fmt.Fprintf(w, " %s %s |", c.metric, c.agg)
	}
	fmt.Fprint(w, " verdict |\n|---|")
	for range cols {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprint(w, "---|\n")
	for _, cell := range r.Cells {
		fmt.Fprintf(w, "| %s |", cell.LabelString())
		for _, c := range cols {
			d, ok := cell.Stats[c.metric]
			if !ok || d.Count == 0 {
				fmt.Fprint(w, " — |")
				continue
			}
			fmt.Fprintf(w, " %s |", fmtG(d.agg(c.agg)))
		}
		fmt.Fprintf(w, " %s |\n", verdictString(cell))
	}
	fmt.Fprintln(w)
	for _, cell := range r.Cells {
		if cell.FirstError != "" {
			fmt.Fprintf(w, "- cell %s: FAILED: %s\n", cell.LabelString(), cell.FirstError)
		}
		for _, a := range cell.FailedAsserts {
			fmt.Fprintf(w, "- cell %s: assert violated: %s\n", cell.LabelString(), a)
		}
	}
	if r.Pass {
		fmt.Fprintln(w, "verdict: PASS")
	} else {
		fmt.Fprintf(w, "verdict: FAIL (%d/%d cells)\n", r.FailedCells, len(r.Cells))
	}
}

func verdictString(c CellResult) string {
	if c.Pass {
		return "pass"
	}
	return "FAIL"
}

func orUnnamed(name string) string {
	if name == "" {
		return "(unnamed)"
	}
	return name
}

// WriteCapacityMarkdown renders a capacity search as a probe table plus the
// knee verdict. Deterministic like the sweep writers.
func WriteCapacityMarkdown(w io.Writer, r *CapacityResult) {
	fmt.Fprintf(w, "## capacity: %s\n\n", orUnnamed(r.Name))
	fmt.Fprintf(w, "bracket [%d, %d] txs/100 ticks, %d load ticks, %d replicates per probe\n",
		r.MinRate, r.MaxRate, r.LoadTicks, r.Replicates)
	fmt.Fprintf(w, "sustained means: %s\n\n", joinOrNone(r.Asserts))
	fmt.Fprint(w, "| rate | offered txs | goodput (tx/1000t) | tx p99 max | backlog max | verdict |\n")
	fmt.Fprint(w, "|---|---|---|---|---|---|\n")
	for _, p := range r.Probes {
		goodput, p99, backlog := "—", "—", "—"
		if d, ok := p.Cell.Stats["tx_throughput"]; ok && d.Count > 0 {
			goodput = fmt.Sprintf("%.1f", d.Mean)
		}
		if d, ok := p.Cell.Stats["tx_p99"]; ok && d.Count > 0 {
			p99 = fmtG(d.Max)
		}
		if d, ok := p.Cell.Stats["backlog"]; ok && d.Count > 0 {
			backlog = fmtG(d.Max)
		}
		fmt.Fprintf(w, "| %d | %d | %s | %s | %s | %s |\n",
			p.Rate, p.TxCount, goodput, p99, backlog, verdictString(p.Cell))
	}
	fmt.Fprintln(w)
	for _, p := range r.Probes {
		if p.Cell.FirstError != "" {
			fmt.Fprintf(w, "- probe %d: FAILED: %s\n", p.Rate, p.Cell.FirstError)
		}
		for _, a := range p.Cell.FailedAsserts {
			fmt.Fprintf(w, "- probe %d: assert violated: %s\n", p.Rate, a)
		}
	}
	switch {
	case r.KneeRate == 0:
		fmt.Fprintf(w, "knee: none — even min_rate %d violates the SLOs\n", r.MinRate)
	case !r.Saturated:
		fmt.Fprintf(w, "knee: >= %d (max_rate passed; the bracket never saturated)\n", r.KneeRate)
	default:
		fmt.Fprintf(w, "knee: %d txs/100 ticks (goodput %.1f tx/1000t, tx p99 %s)\n",
			r.KneeRate, r.KneeGoodput, fmtG(r.KneeTxP99))
	}
	if r.TargetRate > 0 {
		fmt.Fprintf(w, "target: %d\n", r.TargetRate)
	}
	if r.Pass {
		fmt.Fprintln(w, "verdict: PASS")
	} else {
		fmt.Fprintln(w, "verdict: FAIL")
	}
}

func joinOrNone(clauses []string) string {
	if len(clauses) == 0 {
		return "(none)"
	}
	return strings.Join(clauses, " && ")
}

// WriteCSV renders the result in long form — one row per (cell, metric) —
// for downstream analysis. Deterministic like the other writers.
func WriteCSV(w io.Writer, r *Result) {
	fmt.Fprintln(w, "cell,labels,metric,count,mean,stddev,min,max,p50,p99")
	for _, cell := range r.Cells {
		for _, m := range metrics {
			d, ok := cell.Stats[m.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%d,%q,%s,%d,%s,%s,%s,%s,%s,%s\n",
				cell.Index, cell.LabelString(), m.name, d.Count,
				fmtG(d.Mean), fmtG(d.Stddev), fmtG(d.Min), fmtG(d.Max), fmtG(d.P50), fmtG(d.P99))
		}
	}
}

// Diff compares two sweep results cell-by-cell and returns human-readable
// difference lines; an empty slice means the measured results are
// identical. Schema, name, stats and verdicts all participate — Diff is the
// regression check behind `tetrabft-sweep -compare`.
func Diff(a, b *Result) []string {
	var out []string
	if a.Schema != b.Schema {
		out = append(out, fmt.Sprintf("schema: %q vs %q", a.Schema, b.Schema))
	}
	if a.Name != b.Name {
		out = append(out, fmt.Sprintf("name: %q vs %q", a.Name, b.Name))
	}
	if a.Replicates != b.Replicates {
		out = append(out, fmt.Sprintf("replicates: %d vs %d", a.Replicates, b.Replicates))
	}
	if len(a.Cells) != len(b.Cells) {
		out = append(out, fmt.Sprintf("cells: %d vs %d", len(a.Cells), len(b.Cells)))
		return out
	}
	for i := range a.Cells {
		ca, cb := &a.Cells[i], &b.Cells[i]
		if la, lb := ca.LabelString(), cb.LabelString(); la != lb {
			out = append(out, fmt.Sprintf("cell %d: labels %s vs %s", i, la, lb))
			continue
		}
		if len(ca.Reps) != len(cb.Reps) {
			out = append(out, fmt.Sprintf("cell %d (%s): %d vs %d replicates", i, ca.LabelString(), len(ca.Reps), len(cb.Reps)))
			continue
		}
		for r := range ca.Reps {
			ja, _ := json.Marshal(ca.Reps[r])
			jb, _ := json.Marshal(cb.Reps[r])
			if string(ja) != string(jb) {
				out = append(out, fmt.Sprintf("cell %d (%s) seed %d: %s vs %s", i, ca.LabelString(), ca.Reps[r].Seed, ja, jb))
			}
		}
		if ca.Pass != cb.Pass {
			out = append(out, fmt.Sprintf("cell %d (%s): verdict %v vs %v", i, ca.LabelString(), ca.Pass, cb.Pass))
		}
	}
	if a.Pass != b.Pass {
		out = append(out, fmt.Sprintf("verdict: %v vs %v", a.Pass, b.Pass))
	}
	return out
}
