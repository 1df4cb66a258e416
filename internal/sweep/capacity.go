package sweep

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"

	"tetrabft/internal/scenario"
)

// CapacitySchema identifies the capacity result serialization format.
const CapacitySchema = "tetrabft-capacity/v1"

// Capacity declares one capacity-planning question: given a base scenario
// and a set of SLO assertions, what is the highest offered rate the system
// sustains? The planner probes the [MinRate, MaxRate] bracket — each probe
// is a one-cell sweep at that rate, held to Assert — and bisects to the
// knee: the largest probed rate whose cell passes, such that the next
// probed rate fails.
//
// A probe at rate r offers r·LoadTicks/100 transactions (the rate is in
// transactions per 100 ticks, matching workload.tx_rate), overriding the
// base's tx_count and pacing. A base with workload.arrival keeps its
// process shape (burstiness, cohorts, phases) and only the rate moves;
// otherwise the probe paces the legacy uniform tx_rate stream. The base's
// stop.horizon must leave drain headroom above LoadTicks, or every probe
// cuts the stream short and the knee collapses to the horizon's artifact.
type Capacity struct {
	// Name labels the plan in reports.
	Name string `json:"name,omitempty"`
	// Base is the scenario every probe starts from. Its workload tx_count,
	// tx_rate and arrival rate are overridden per probe.
	Base scenario.Scenario `json:"base"`
	// MinRate and MaxRate bracket the search, in txs per 100 ticks.
	// MinRate failing means no knee (Pass=false); MaxRate passing means
	// the system was not saturated inside the bracket (KneeRate=MaxRate,
	// Saturated=false).
	MinRate int64 `json:"min_rate"`
	MaxRate int64 `json:"max_rate"`
	// LoadTicks is how long each probe offers load: a probe at rate r
	// offers r·LoadTicks/100 transactions.
	LoadTicks int64 `json:"load_ticks"`
	// Tolerance is the relative bracket width at which bisection stops:
	// the search ends when hi−lo ≤ max(1, Tolerance·lo). Default 0.25.
	Tolerance float64 `json:"tolerance,omitempty"`
	// Replicates is the number of seed replicates per probe (default 1).
	Replicates int `json:"replicates,omitempty"`
	// Assert lists the SLO clauses every probe is held to — the capacity
	// definition itself, e.g. "max_tx_p99 <= 300" and "max_backlog <= 0".
	Assert []string `json:"assert"`
	// TargetRate, when set, turns the result into a regression gate:
	// Pass additionally requires KneeRate >= TargetRate.
	TargetRate int64 `json:"target_rate,omitempty"`
}

// CapacityResult is a capacity search's full record: every probe in search
// order, the knee, and the verdict. Marshaling is byte-identical for
// identical runs.
type CapacityResult struct {
	// Schema is always "tetrabft-capacity/v1".
	Schema string `json:"schema"`
	// Name echoes the plan's name.
	Name string `json:"name,omitempty"`
	// MinRate/MaxRate/LoadTicks/Tolerance/Replicates echo the plan.
	MinRate    int64   `json:"min_rate"`
	MaxRate    int64   `json:"max_rate"`
	LoadTicks  int64   `json:"load_ticks"`
	Tolerance  float64 `json:"tolerance"`
	Replicates int     `json:"replicates"`
	// Asserts echoes the SLO clauses defining "sustained".
	Asserts []string `json:"asserts,omitempty"`
	// Probes holds every probed rate in search order (bracket ends first,
	// then the bisection sequence).
	Probes []ProbeResult `json:"probes"`
	// KneeRate is the highest probed rate that passed every SLO, in txs
	// per 100 ticks; 0 when even MinRate failed.
	KneeRate int64 `json:"knee_rate"`
	// KneeGoodput is the mean decided-tx/1000-ticks at the knee.
	KneeGoodput float64 `json:"knee_goodput,omitempty"`
	// KneeTxP99 is the worst replicate's commit-latency p99 at the knee.
	KneeTxP99 float64 `json:"knee_tx_p99,omitempty"`
	// Saturated is true when the search found a failing rate above the
	// knee — the bracket actually contains the capacity cliff. False
	// means MaxRate itself passed and the true knee lies above it.
	Saturated bool `json:"saturated"`
	// TargetRate echoes the plan's regression floor.
	TargetRate int64 `json:"target_rate,omitempty"`
	// Pass is true when a knee was found and, if TargetRate is set,
	// KneeRate >= TargetRate.
	Pass bool `json:"pass"`
}

// ProbeResult is one probed rate: the offered load and the one-cell sweep
// verdict at that rate.
type ProbeResult struct {
	// Rate is the probed offered rate, in txs per 100 ticks.
	Rate int64 `json:"rate"`
	// TxCount is the stream length the probe offered.
	TxCount int `json:"tx_count"`
	// Cell is the probe's full one-cell measurement, including stats and
	// any failed assertions.
	Cell CellResult `json:"cell"`
}

// Pass reports whether the probe's cell met every SLO.
func (p ProbeResult) Pass() bool { return p.Cell.Pass }

// ParseCapacity decodes a JSON capacity plan strictly (unknown fields are
// errors) and validates it, mirroring sweep.Parse.
func ParseCapacity(data []byte) (Capacity, error) {
	var cp Capacity
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cp); err != nil {
		return Capacity{}, fmt.Errorf("capacity: parse: %w", err)
	}
	if err := cp.Validate(); err != nil {
		return Capacity{}, err
	}
	return cp, nil
}

// MarshalIndent renders the plan as indented JSON (the sharable form).
func (cp Capacity) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(cp, "", "  ")
}

// MarshalIndent renders the result as indented JSON — the
// "tetrabft-capacity/v1" snapshot, byte-identical for identical runs.
func (r *CapacityResult) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ParseCapacityResult decodes a tetrabft-capacity/v1 snapshot.
func ParseCapacityResult(data []byte) (*CapacityResult, error) {
	var r CapacityResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// tolerance returns the effective stop tolerance (Validate refuses a
// negative one).
func (cp Capacity) tolerance() float64 { return cmp.Or(cp.Tolerance, 0.25) }

// Validate checks the plan without running it: the bracket is ordered, the
// assertions parse, and a probe at MinRate compiles to a valid sweep.
func (cp Capacity) Validate() error {
	if cp.MinRate <= 0 {
		return fmt.Errorf("capacity: min_rate must be positive, got %d", cp.MinRate)
	}
	if cp.MaxRate < cp.MinRate {
		return fmt.Errorf("capacity: max_rate %d below min_rate %d", cp.MaxRate, cp.MinRate)
	}
	if cp.LoadTicks <= 0 {
		return fmt.Errorf("capacity: load_ticks must be positive, got %d", cp.LoadTicks)
	}
	if cp.Tolerance < 0 {
		return fmt.Errorf("capacity: negative tolerance %g", cp.Tolerance)
	}
	if len(cp.Assert) == 0 {
		return fmt.Errorf("capacity: at least one assert clause is required (it defines what \"sustained\" means)")
	}
	if cp.Base.Stop.Horizon > 0 && cp.Base.Stop.Horizon <= cp.LoadTicks {
		return fmt.Errorf("capacity: stop.horizon %d leaves no drain headroom above load_ticks %d", cp.Base.Stop.Horizon, cp.LoadTicks)
	}
	return cp.probeSweep(cp.MinRate).Validate()
}

// probeSweep builds the one-cell sweep measuring the plan at one rate.
func (cp Capacity) probeSweep(rate int64) Sweep {
	sc := cp.Base
	sc.Workload.TxCount = max(int(rate*cp.LoadTicks/100), 1)
	if cp.Base.Workload.Arrival != nil {
		a := *cp.Base.Workload.Arrival
		a.Rate = float64(rate)
		sc.Workload.Arrival = &a
		sc.Workload.TxRate = 0
	} else {
		sc.Workload.TxRate = rate
	}
	return Sweep{
		Name:       fmt.Sprintf("%s@%d", cp.Name, rate),
		Base:       sc,
		Replicates: cp.Replicates,
		Assert:     cp.Assert,
	}
}

// RunCapacity executes the knee search: probe the bracket ends, then bisect
// between the highest passing and lowest failing rate until the bracket is
// within tolerance. Every probe is a full one-cell sweep (replicated,
// asserted), so the search is deterministic: rerunning it reproduces every
// probe. Probe failures (SLO violations, run errors) steer the search; only
// an invalid plan is an error.
func RunCapacity(cp Capacity) (*CapacityResult, error) {
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	result := &CapacityResult{
		Schema:     CapacitySchema,
		Name:       cp.Name,
		MinRate:    cp.MinRate,
		MaxRate:    cp.MaxRate,
		LoadTicks:  cp.LoadTicks,
		Tolerance:  cp.tolerance(),
		Replicates: max(cp.Replicates, 1),
		Asserts:    append([]string(nil), cp.Assert...),
		TargetRate: cp.TargetRate,
	}
	probe := func(rate int64) (ProbeResult, error) {
		sw := cp.probeSweep(rate)
		res, err := Run(sw)
		if err != nil {
			return ProbeResult{}, fmt.Errorf("capacity: probe at rate %d: %w", rate, err)
		}
		pr := ProbeResult{Rate: rate, TxCount: sw.Base.Workload.TxCount, Cell: res.Cells[0]}
		result.Probes = append(result.Probes, pr)
		return pr, nil
	}

	low, err := probe(cp.MinRate)
	if err != nil {
		return nil, err
	}
	if !low.Pass() {
		// Even the floor violates the SLOs: no sustainable rate in the
		// bracket. KneeRate 0 fails the plan.
		result.Saturated = true
		return result, nil
	}
	knee := low
	if cp.MaxRate > cp.MinRate {
		high, err := probe(cp.MaxRate)
		if err != nil {
			return nil, err
		}
		if high.Pass() {
			// The whole bracket sustains: capacity is at least MaxRate.
			knee = high
		} else {
			result.Saturated = true
			lo, hi := cp.MinRate, cp.MaxRate
			for hi-lo > max(1, int64(result.Tolerance*float64(lo))) {
				mid := lo + (hi-lo)/2
				pr, err := probe(mid)
				if err != nil {
					return nil, err
				}
				if pr.Pass() {
					lo, knee = mid, pr
				} else {
					hi = mid
				}
			}
		}
	} else {
		// Degenerate bracket: the single passing probe is the knee, but
		// nothing above it was tested.
		result.Saturated = false
	}
	result.KneeRate = knee.Rate
	if d, ok := knee.Cell.Stats["tx_throughput"]; ok {
		result.KneeGoodput = d.Mean
	}
	if d, ok := knee.Cell.Stats["tx_p99"]; ok {
		result.KneeTxP99 = d.Max
	}
	result.Pass = result.KneeRate > 0 &&
		(cp.TargetRate == 0 || result.KneeRate >= cp.TargetRate)
	return result, nil
}
