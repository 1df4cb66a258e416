// Package workload generates open-loop offered-load streams: seeded arrival
// processes (Poisson, Gamma, Weibull or constant inter-arrival), multi-cohort
// mixes with per-cohort key spaces and transaction sizes, and piecewise
// time-varying rate windows (ramp, spike, diurnal). A spec plus a seed pins
// the whole schedule — generation is sequential and engine-independent, so
// the simulator, the TCP runtime and every sharded cluster consume exactly
// the same byte-identical arrival stream through the timed-mempool path. A
// Producer generates a stream on a goroutine of its own while the run that
// consumes it starts; since arrivals come in tick order, the run sees the
// same stream whether the producer is ahead of it or behind.
//
// Closed-loop workloads (a fixed transaction list, a gated drain) can never
// push a pipeline past saturation: the next request waits for the previous
// response. An open-loop process keeps offering work at its own rate whether
// or not the system keeps up, which is what makes "max sustainable rate
// under an SLO" (the capacity-planning question) measurable at all.
package workload

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"tetrabft/internal/types"
)

// Process names for ArrivalSpec.Process.
const (
	// ProcessPoisson draws exponential inter-arrivals (memoryless — the
	// classic open-loop client population).
	ProcessPoisson = "poisson"
	// ProcessGamma draws Gamma inter-arrivals: Shape < 1 is burstier than
	// Poisson, Shape > 1 smoother, mean rate identical.
	ProcessGamma = "gamma"
	// ProcessWeibull draws Weibull inter-arrivals: heavy-tailed gaps for
	// Shape < 1 (flash-crowd-ish), normalized to the same mean rate.
	ProcessWeibull = "weibull"
	// ProcessConstant spaces arrivals exactly 100/Rate ticks apart — the
	// deterministic pacing the legacy tx_rate knob provided.
	ProcessConstant = "constant"
)

// ArrivalSpec declares the arrival process of an open-loop stream.
type ArrivalSpec struct {
	// Process selects the inter-arrival distribution (default poisson).
	Process string `json:"process,omitempty"`
	// Rate is the mean offered load in transactions per 100 ticks (the
	// same currency as the legacy tx_rate knob). Must be positive.
	Rate float64 `json:"rate"`
	// Shape is the gamma/weibull shape parameter k (default 1, which makes
	// both processes exponential). Ignored by poisson and constant.
	Shape float64 `json:"shape,omitempty"`
}

// CohortSpec declares one client cohort of a multi-cohort mix. Each arrival
// is assigned a cohort by weighted draw; the cohort fixes the transaction's
// key space (which drives shard routing) and its payload size.
type CohortSpec struct {
	// Name labels the cohort in keys and payloads (default "c<index>").
	Name string `json:"name,omitempty"`
	// Weight is the cohort's share of arrivals (default 1; shares are
	// Weight / sum of weights).
	Weight float64 `json:"weight,omitempty"`
	// Keys is the cohort's key-space size: keys are "<name>-k<0..Keys)"
	// (default 64). Small key spaces concentrate load (hot shards).
	Keys int `json:"keys,omitempty"`
	// TxBytes pads the transaction payload to this size (default 0 = the
	// minimal self-describing payload).
	TxBytes int `json:"tx_bytes,omitempty"`
}

// PhaseSpec is one window of a piecewise time-varying rate profile. Phases
// repeat cyclically, so two phases model a diurnal square wave and a
// ramp/spike is a low-factor phase followed by a high-factor one.
type PhaseSpec struct {
	// Duration is the window length in ticks. Must be positive.
	Duration int64 `json:"duration"`
	// RateFactor scales the base rate inside the window; 0 silences the
	// stream for the window.
	RateFactor float64 `json:"rate_factor"`
}

// Arrival is one scheduled transaction of the offered-load stream.
type Arrival struct {
	// At is the arrival tick (wall milliseconds on the TCP engine).
	At types.Time `json:"at"`
	// Cohort indexes the cohort the arrival was drawn for.
	Cohort int `json:"cohort"`
	// Key is the transaction's routing key ("<cohort>-k<n>").
	Key string `json:"key"`
	// Payload is the unique opaque transaction body.
	Payload []byte `json:"payload"`
}

// Spec bundles the three workload dimensions for validation and generation.
// Zero-value Cohorts means one default cohort; zero-value Phases means a
// flat rate.
type Spec struct {
	Arrival ArrivalSpec  `json:"arrival"`
	Cohorts []CohortSpec `json:"cohorts,omitempty"`
	Phases  []PhaseSpec  `json:"phases,omitempty"`
}

// Validate checks the spec without generating anything.
func (s Spec) Validate() error {
	a := s.Arrival
	switch a.Process {
	case "", ProcessPoisson, ProcessConstant:
	case ProcessGamma, ProcessWeibull:
		if a.Shape < 0 {
			return fmt.Errorf("workload: negative shape %v", a.Shape)
		}
	default:
		return fmt.Errorf("workload: unknown arrival process %q", a.Process)
	}
	if a.Rate <= 0 {
		return fmt.Errorf("workload: arrival rate %v must be positive", a.Rate)
	}
	if a.Shape != 0 && (a.Process == "" || a.Process == ProcessPoisson || a.Process == ProcessConstant) {
		return fmt.Errorf("workload: shape applies only to the gamma and weibull processes")
	}
	total := 0.0
	for i, c := range s.Cohorts {
		if c.Weight < 0 || c.Keys < 0 || c.TxBytes < 0 {
			return fmt.Errorf("workload: cohort %d has a negative weight, keys or tx_bytes", i)
		}
		if c.TxBytes > 1<<16 {
			return fmt.Errorf("workload: cohort %d tx_bytes %d exceeds 65536", i, c.TxBytes)
		}
		total += cohortWeight(c)
	}
	if len(s.Cohorts) > 0 && total <= 0 {
		return fmt.Errorf("workload: cohort weights sum to zero")
	}
	for i, ph := range s.Phases {
		if ph.Duration <= 0 {
			return fmt.Errorf("workload: phase %d duration %d must be positive", i, ph.Duration)
		}
		if ph.RateFactor < 0 {
			return fmt.Errorf("workload: phase %d rate_factor %v is negative", i, ph.RateFactor)
		}
	}
	if allSilent(s.Phases) {
		return fmt.Errorf("workload: every phase has rate_factor 0 — the stream never starts")
	}
	return nil
}

func allSilent(phases []PhaseSpec) bool {
	if len(phases) == 0 {
		return false
	}
	for _, ph := range phases {
		if ph.RateFactor > 0 {
			return false
		}
	}
	return true
}

func cohortWeight(c CohortSpec) float64 {
	if c.Weight == 0 {
		return 1
	}
	return c.Weight
}

func cohortName(i int, c CohortSpec) string {
	if c.Name != "" {
		return c.Name
	}
	return "c" + strconv.Itoa(i) // not fmt: its printer pool misses at random under -race
}

func cohortKeys(c CohortSpec) int {
	if c.Keys == 0 {
		return 64
	}
	return c.Keys
}

// Schedule generates the first count arrivals of the stream, in arrival
// order: Generate into an []Arrival.
func (s Spec) Schedule(count int, seed int64) ([]Arrival, error) {
	// Validate first, so that an invalid spec sizes nothing by count.
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out := Arrivals(make([]Arrival, 0, count))
	if err := s.Generate(count, seed, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Arrivals is a Sink that keeps a stream as Schedule returns it.
type Arrivals []Arrival

func (a *Arrivals) Arrive(at types.Time, cohort int, key string, payload []byte) {
	*a = append(*a, Arrival{At: at, Cohort: cohort, Key: key, Payload: payload})
}

// Sink receives a stream as it is drawn: Arrive once per arrival, in
// arrival order, with the arrival's payload, which Generate writes right
// after it draws the arrival. A consumer that keeps only some of an
// arrival's fields stores them straight into its own columns, with no
// []Arrival in between; one that runs on another goroutine takes the stream
// from a Producer.
type Sink interface {
	Arrive(at types.Time, cohort int, key string, payload []byte)
}

// Generate draws the first count arrivals of the stream into dst. The
// stream is a pure function of (spec, count, seed): sequential splitmix64
// draws, no global state, no parallelism — byte-identical across runs,
// engines and GOMAXPROCS values.
//
// It allocates by the slab, not by the arrival, in one pass: each key is
// written into one string and each payload into one byte slab right after
// its arrival is drawn (each payload clipped to its own length, so an append
// to one copies it). Holding any payload or key keeps its whole slab alive.
// Both are sized up front from the largest key and payload any cohort can
// draw, so neither grows; a mix whose cohorts pad to different sizes
// reserves the largest payload for every arrival (a 3:1 mix of 21-byte and
// 64-byte payloads reserves 64 bytes an arrival where it fills 32 on
// average).
func (s Spec) Generate(count int, seed int64, dst Sink) error {
	if err := s.Validate(); err != nil {
		return err
	}
	cohorts := s.Cohorts
	if len(cohorts) == 0 {
		cohorts = []CohortSpec{{}}
	}
	weights := make([]float64, len(cohorts))
	names := make([]string, len(cohorts))
	totalW := 0.0
	maxKey, maxPayload := 0, 0
	for i, c := range cohorts {
		weights[i] = cohortWeight(c)
		names[i] = cohortName(i, c)
		totalW += weights[i]
		key := len(names[i]) + len("-k") + max(digits(cohortKeys(c)-1), 4)
		maxKey = max(maxKey, key)
		maxPayload = max(maxPayload, len("wtx-")+max(digits(count-1), 8)+len("||")+key, c.TxBytes)
	}

	// Payload "wtx-<i, 8 digits>|<key>|" padded with '.' to TxBytes, key
	// "<cohort>-k<n, 4 digits>" (both widths are minimums). No key is longer
	// than maxKey and no payload than maxPayload, so neither slab grows.
	r := newRNG(seed)
	var keys strings.Builder
	keys.Grow(count * maxKey)
	slab := make([]byte, 0, count*maxPayload)
	var num [24]byte
	t := 0.0
	for i := 0; i < count; i++ {
		dt, ok := s.interArrival(r, t)
		if !ok {
			break
		}
		t += dt
		// Cohort by weighted draw.
		ci := 0
		if len(cohorts) > 1 {
			x := r.uniform() * totalW
			for ci = 0; ci < len(weights)-1; ci++ {
				x -= weights[ci]
				if x <= 0 {
					break
				}
			}
		}
		at := keys.Len()
		keys.WriteString(names[ci])
		keys.WriteString("-k")
		keys.Write(appendZeroPad(num[:0], r.intn(cohortKeys(cohorts[ci])), 4))
		key := keys.String()[at:]
		start := len(slab)
		slab = appendZeroPad(append(slab, "wtx-"...), i, 8)
		slab = append(append(append(slab, '|'), key...), '|')
		for len(slab)-start < cohorts[ci].TxBytes {
			slab = append(slab, '.')
		}
		dst.Arrive(types.Time(t), ci, key, slab[start:len(slab):len(slab)])
	}
	return nil
}

// Paced generates the deterministically paced stream into dst: count
// arrivals, arrival i at tick i·100/rate (every one at tick 0 when rate is
// 0), each with the synthetic account key "acct-<i>" and the payload
// "otx-<i>", i in at least 8 digits.
func Paced(count int, rate int64, dst Sink) {
	for i := 0; i < count; i++ {
		var at types.Time
		if rate > 0 {
			at = types.Time(int64(i) * 100 / rate)
		}
		dst.Arrive(at, 0, fmt.Sprintf("acct-%08d", i), fmt.Appendf(nil, "otx-%08d", i))
	}
}

// digits is the number of decimal digits of v ≥ 0.
func digits(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// appendZeroPad appends the decimal form of v ≥ 0, left-padded with zeros to
// at least width digits: fmt's %0<width>d without fmt. It writes the digits
// in place, last first, with no intermediate buffer to copy from, into b
// grown in place (append(b, make([]byte, n)...) allocates under -race).
func appendZeroPad(b []byte, v, width int) []byte {
	n := max(digits(v), width)
	b = slices.Grow(b, n)[:len(b)+n]
	for i := len(b) - 1; i >= len(b)-n; i-- {
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return b
}

// interArrival samples the gap to the next arrival at time t, honoring the
// phase profile: the effective rate is Rate × the current phase's factor,
// a zero-rate window fast-forwards to the next phase boundary, and a gap
// that lands inside a silent window is deferred to that window's end (so
// silent windows really are silent).
func (s *Spec) interArrival(r *rng, t float64) (float64, bool) {
	base := t
	for hops := 0; hops <= len(s.Phases)+1; hops++ {
		factor := s.factorAt(t)
		if factor == 0 {
			t = s.nextBoundary(t)
			continue
		}
		mean := 100 / (s.Arrival.Rate * factor)
		t += s.sample(r, mean)
		for s.factorAt(t) == 0 {
			t = s.nextBoundary(t)
		}
		return t - base, true
	}
	return 0, false // fully silent profile (validated against, belt and braces)
}

// sample draws one inter-arrival gap with the given mean.
func (s *Spec) sample(r *rng, mean float64) float64 {
	shape := s.Arrival.Shape
	if shape == 0 {
		shape = 1
	}
	switch s.Arrival.Process {
	case ProcessConstant:
		return mean
	case ProcessGamma:
		return r.gamma(shape, mean/shape)
	case ProcessWeibull:
		return r.weibull(shape, mean/math.Gamma(1+1/shape))
	default: // "", ProcessPoisson
		return r.exp(mean)
	}
}

// factorAt returns the rate factor of the phase covering tick t (phases
// cycle; no phases = 1).
func (s *Spec) factorAt(t float64) float64 {
	if len(s.Phases) == 0 {
		return 1
	}
	cycle := int64(0)
	for _, ph := range s.Phases {
		cycle += ph.Duration
	}
	off := int64(t) % cycle
	for _, ph := range s.Phases {
		if off < ph.Duration {
			return ph.RateFactor
		}
		off -= ph.Duration
	}
	return s.Phases[len(s.Phases)-1].RateFactor
}

// nextBoundary returns the start of the phase window after the one covering
// t.
func (s *Spec) nextBoundary(t float64) float64 {
	cycle := int64(0)
	for _, ph := range s.Phases {
		cycle += ph.Duration
	}
	base := (int64(t) / cycle) * cycle
	off := int64(t) - base
	acc := int64(0)
	for _, ph := range s.Phases {
		acc += ph.Duration
		if off < acc {
			return float64(base + acc)
		}
	}
	return float64(base + cycle)
}
