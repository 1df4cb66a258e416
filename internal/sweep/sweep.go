// Package sweep turns the declarative scenario API into an experimentation
// platform: a JSON-serializable Sweep spec is a base Scenario plus ordered
// axes that each vary one spec field (cluster size, Δ, timeout factor, loss
// rate, fault schedule, protocol, …). The axes are cross-producted into a
// grid of cells, every cell is run K times under consecutive seeds, and the
// engine aggregates per-cell statistics (mean/stddev/min/max/p50/p99 of
// latency, traffic, storage, max view, …) with declarative SLO assertions
// ("p99_latency <= 9") folded into a pass/fail verdict.
//
// Execution fans the (cell × replicate) grid out over the GOMAXPROCS-bounded
// pool in internal/par and folds results in input order, so a sweep's output
// — including its marshaled JSON — is byte-identical at any core count. A
// sweep spec plus its seed therefore pins the whole experiment: sharing the
// JSON is sharing the distribution, not just a point estimate.
//
// The package also houses the scenario fuzzer (fuzz.go): seeded random
// sampling of valid scenarios from declared ranges, with greedy shrinking of
// any failure to a minimal reproducing Scenario.
package sweep

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"tetrabft/internal/scenario"
	"tetrabft/internal/workload"
)

// Schema identifies the sweep result serialization format.
const Schema = "tetrabft-sweep/v1"

// Sweep declares one experiment grid: a base scenario, the axes that vary
// it, how many seed replicates to run per cell, and the SLO assertions that
// every cell must satisfy.
type Sweep struct {
	// Name labels the sweep in reports.
	Name string `json:"name,omitempty"`
	// Base is the scenario every cell starts from. Its seed (default 1)
	// seeds replicate 0; replicate r runs at seed+r.
	Base scenario.Scenario `json:"base"`
	// Axes are cross-producted in order (the first axis is the outermost
	// loop) into the cell grid. No axes = one cell, the base itself.
	Axes []Axis `json:"axes,omitempty"`
	// Replicates is the number of seed replicates per cell (default 1).
	Replicates int `json:"replicates,omitempty"`
	// Assert lists SLO assertions evaluated against every cell's stats,
	// e.g. "p99_latency <= 9" or "min_decided >= 4". Grammar:
	// [<field>=<value> ...:] <agg>_<metric> <op> <number> with agg ∈
	// mean|stddev|min|max|p50|p99|count, metric a RepResult key, op ∈
	// <= < >= > == !=. The optional selector of axis labels limits the
	// clause to the cells carrying all of them ("protocol=pbft:
	// max_latency == 3"); a selector that names no axis or matches no
	// cell is a spec error.
	Assert []string `json:"assert,omitempty"`
}

// Axis varies one scenario field across a list of values. Exactly one value
// list — the one matching the field's type — must be set.
type Axis struct {
	// Field names the varied scenario field; see axisFields.
	Field string `json:"field"`
	// Ints holds values for integer-valued fields (nodes, delta,
	// timeout_factor, gst, event_budget, horizon, slots, max_slot,
	// batch_size, tx_rate, tx_count, window, shards).
	Ints []int64 `json:"ints,omitempty"`
	// Floats holds values for drop_before_gst and arrival_rate.
	Floats []float64 `json:"floats,omitempty"`
	// Strings holds values for protocol and mutation.
	Strings []string `json:"strings,omitempty"`
	// Faults holds whole fault schedules (the faults field).
	Faults [][]scenario.FaultSpec `json:"faults,omitempty"`
	// Delays holds delay models (the delay field).
	Delays []scenario.DelaySpec `json:"delays,omitempty"`
}

// axisKind is the value type an axis field expects.
type axisKind int

const (
	kindInt axisKind = iota
	kindFloat
	kindString
	kindFaults
	kindDelay
)

// axisFields maps a field name to its value type and its setter.
var axisFields = map[string]struct {
	kind axisKind
	set  func(sc *scenario.Scenario, v axisValue)
}{
	"nodes":          {kindInt, func(sc *scenario.Scenario, v axisValue) { sc.Nodes = int(v.i) }},
	"delta":          {kindInt, func(sc *scenario.Scenario, v axisValue) { sc.Delta = v.i }},
	"timeout_factor": {kindInt, func(sc *scenario.Scenario, v axisValue) { sc.TimeoutFactor = int(v.i) }},
	"gst":            {kindInt, func(sc *scenario.Scenario, v axisValue) { sc.Network.GST = v.i }},
	"event_budget":   {kindInt, func(sc *scenario.Scenario, v axisValue) { sc.Network.EventBudget = int(v.i) }},
	"horizon":        {kindInt, func(sc *scenario.Scenario, v axisValue) { sc.Stop.Horizon = v.i }},
	"slots":          {kindInt, func(sc *scenario.Scenario, v axisValue) { sc.Workload.Slots = v.i }},
	"max_slot":       {kindInt, func(sc *scenario.Scenario, v axisValue) { sc.Workload.MaxSlot = v.i }},
	"batch_size":     {kindInt, func(sc *scenario.Scenario, v axisValue) { sc.Workload.BatchSize = int(v.i) }},
	"tx_rate":        {kindInt, func(sc *scenario.Scenario, v axisValue) { sc.Workload.TxRate = v.i }},
	"tx_count":       {kindInt, func(sc *scenario.Scenario, v axisValue) { sc.Workload.TxCount = int(v.i) }},
	"window":         {kindInt, func(sc *scenario.Scenario, v axisValue) { sc.Workload.Window = int(v.i) }},
	"shards": {kindInt, func(sc *scenario.Scenario, v axisValue) {
		// Deep-copy the spec: cells must not share the base's pointer.
		var cp scenario.ShardsSpec
		if sc.Shards != nil {
			cp = *sc.Shards
		}
		cp.Count = int(v.i)
		sc.Shards = &cp
	}},
	"drop_before_gst": {kindFloat, func(sc *scenario.Scenario, v axisValue) { sc.Network.DropBeforeGST = v.f }},
	"arrival_rate": {kindFloat, func(sc *scenario.Scenario, v axisValue) {
		// Deep-copy the spec: cells must not share the base's pointer. A
		// base without an arrival spec gets a plain Poisson process.
		var cp workload.ArrivalSpec
		if sc.Workload.Arrival != nil {
			cp = *sc.Workload.Arrival
		}
		cp.Rate = v.f
		sc.Workload.Arrival = &cp
	}},
	"protocol": {kindString, func(sc *scenario.Scenario, v axisValue) { sc.Protocol = scenario.Protocol(v.s) }},
	"mutation": {kindString, func(sc *scenario.Scenario, v axisValue) { sc.Mutation = scenario.Mutation(v.s) }},
	"faults":   {kindFaults, func(sc *scenario.Scenario, v axisValue) { sc.Faults = v.faults }},
	"delay": {kindDelay, func(sc *scenario.Scenario, v axisValue) {
		d := v.delay
		sc.Network.Delay = &d
	}},
}

// axisValue is one concrete value of an axis.
type axisValue struct {
	i      int64
	f      float64
	s      string
	faults []scenario.FaultSpec
	delay  scenario.DelaySpec
	label  string
}

// values normalizes the axis into typed values with display labels.
func (a Axis) values() ([]axisValue, error) {
	spec, ok := axisFields[a.Field]
	if !ok {
		return nil, fmt.Errorf("sweep: unknown axis field %q", a.Field)
	}
	lists := [...][]axisValue{
		kindInt:    valuesOf(a.Ints, func(v int64) axisValue { return axisValue{i: v, label: strconv.FormatInt(v, 10)} }),
		kindFloat:  valuesOf(a.Floats, func(v float64) axisValue { return axisValue{f: v, label: strconv.FormatFloat(v, 'g', -1, 64)} }),
		kindString: valuesOf(a.Strings, func(v string) axisValue { return axisValue{s: v, label: v} }),
		kindFaults: valuesOf(a.Faults, func(v []scenario.FaultSpec) axisValue { return axisValue{faults: v, label: faultsLabel(v)} }),
		kindDelay:  valuesOf(a.Delays, func(v scenario.DelaySpec) axisValue { return axisValue{delay: v, label: delayLabel(v)} }),
	}
	set := 0
	for _, l := range lists {
		if len(l) > 0 {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("sweep: axis %q must set exactly one non-empty value list", a.Field)
	}
	out := lists[spec.kind]
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: axis %q has values of the wrong type (field wants %s)", a.Field, kindNames[spec.kind])
	}
	return out, nil
}

// valuesOf converts one typed value list.
func valuesOf[T any](vs []T, value func(T) axisValue) []axisValue {
	out := make([]axisValue, len(vs))
	for i, v := range vs {
		out[i] = value(v)
	}
	return out
}

// kindNames names each axisKind's value list.
var kindNames = [...]string{kindInt: "ints", kindFloat: "floats", kindString: "strings", kindFaults: "faults", kindDelay: "delays"}

// faultsLabel renders a fault schedule compactly: "silent@0+partition", or
// "suppress-proposals<6" for proposals suppressed below view 6.
func faultsLabel(faults []scenario.FaultSpec) string {
	if len(faults) == 0 {
		return "none"
	}
	parts := make([]string, 0, len(faults))
	for _, f := range faults {
		switch f.Type {
		case scenario.FaultSilent, scenario.FaultEquivocator, scenario.FaultRandom,
			scenario.FaultForgedHistory, scenario.FaultStarveDecision:
			parts = append(parts, fmt.Sprintf("%s@%d", f.Type, f.Node))
		case scenario.FaultSuppressProposals:
			parts = append(parts, fmt.Sprintf("%s<%d", f.Type, f.BelowView))
		default:
			parts = append(parts, string(f.Type))
		}
	}
	return strings.Join(parts, "+")
}

// delayLabel renders a delay model compactly: "uniform[5,10]".
func delayLabel(d scenario.DelaySpec) string {
	switch d.Model {
	case scenario.DelayUniform:
		return fmt.Sprintf("uniform[%d,%d]", d.Min, d.Max)
	case scenario.DelayPerLink:
		return fmt.Sprintf("per-link(default %d)", d.Default)
	default:
		return fmt.Sprintf("constant %d", d.D)
	}
}

// Parse decodes a JSON sweep spec strictly (unknown fields are errors) and
// validates it, mirroring scenario.Parse.
func Parse(data []byte) (Sweep, error) {
	var sw Sweep
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sw); err != nil {
		return Sweep{}, fmt.Errorf("sweep: parse: %w", err)
	}
	if err := sw.Validate(); err != nil {
		return Sweep{}, err
	}
	return sw, nil
}

// MarshalIndent renders the spec as indented JSON (the sharable form).
func (sw Sweep) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(sw, "", "  ")
}

// Validate checks the sweep without running it: the axes are well-formed,
// the assertions parse, and every cell of the grid compiles to a valid
// scenario.
func (sw Sweep) Validate() error {
	_, err := sw.compile()
	return err
}

// cellPlan is one compiled grid cell.
type cellPlan struct {
	sc     scenario.Scenario
	labels []Label
}

// plan is the compiled form of a Sweep.
type plan struct {
	cells      []cellPlan
	replicates int
	seedBase   int64
	asserts    []assertion
}

// maxCells bounds the grid so a typo'd axis cannot explode into millions of
// simulator runs.
const maxCells = 10000

func (sw Sweep) compile() (*plan, error) {
	p := &plan{replicates: cmp.Or(sw.Replicates, 1), seedBase: cmp.Or(sw.Base.Seed, 1)}
	if p.replicates < 0 {
		return nil, fmt.Errorf("sweep: negative replicates %d", sw.Replicates)
	}
	for _, a := range sw.Assert {
		as, err := parseAssertion(a)
		if err != nil {
			return nil, err
		}
		p.asserts = append(p.asserts, as)
	}

	axes := make([][]axisValue, len(sw.Axes))
	total := 1
	for i, a := range sw.Axes {
		vals, err := a.values()
		if err != nil {
			return nil, err
		}
		axes[i] = vals
		total *= len(vals)
		if total > maxCells {
			return nil, fmt.Errorf("sweep: grid exceeds %d cells", maxCells)
		}
	}

	// Enumerate the grid row-major: the first axis is the outermost loop.
	idx := make([]int, len(axes))
	for {
		sc := sw.Base
		labels := make([]Label, len(axes))
		for i, a := range sw.Axes {
			v := axes[i][idx[i]]
			axisFields[a.Field].set(&sc, v)
			labels[i] = Label{Field: a.Field, Value: v.label}
		}
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: cell %s: %w", labelString(labels), err)
		}
		p.cells = append(p.cells, cellPlan{sc: sc, labels: labels})

		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(axes[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	for _, as := range p.asserts {
		if err := as.checkSelector(sw.Axes, p.cells); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// labelString joins cell labels for error messages and reports.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return "(base)"
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Field + "=" + l.Value
	}
	return strings.Join(parts, " ")
}
