package workload

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tetrabft/examples"
	"tetrabft/internal/types"
)

// frozenSchedule is Schedule as it was before Generate took its body, kept
// verbatim as the reference TestScheduleMatchesFrozen holds Schedule to.
func frozenSchedule(s Spec, count int, seed int64) ([]Arrival, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cohorts := s.Cohorts
	if len(cohorts) == 0 {
		cohorts = []CohortSpec{{}}
	}
	weights := make([]float64, len(cohorts))
	names := make([]string, len(cohorts))
	totalW := 0.0
	maxKey := 0
	for i, c := range cohorts {
		weights[i] = cohortWeight(c)
		names[i] = cohortName(i, c)
		totalW += weights[i]
		maxKey = max(maxKey, len(names[i])+len("-k")+max(digits(cohortKeys(c)-1), 4))
	}

	r := newRNG(seed)
	out := make([]Arrival, 0, count)
	var keys strings.Builder
	keys.Grow(count * maxKey)
	var num [24]byte
	payloadBytes := 0
	t := 0.0
	for i := 0; i < count; i++ {
		dt, ok := s.interArrival(r, t)
		if !ok {
			break
		}
		t += dt
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
		payloadBytes += max(len("wtx-")+max(digits(i), 8)+len("||")+len(key), cohorts[ci].TxBytes)
		out = append(out, Arrival{At: types.Time(t), Cohort: ci, Key: key})
	}
	slab := make([]byte, 0, payloadBytes)
	for i := range out {
		a := &out[i]
		start := len(slab)
		slab = appendZeroPad(append(slab, "wtx-"...), i, 8)
		slab = append(append(append(slab, '|'), a.Key...), '|')
		for len(slab)-start < cohorts[a.Cohort].TxBytes {
			slab = append(slab, '.')
		}
		a.Payload = slab[start:len(slab):len(slab)]
	}
	return out, nil
}

// librarySpecs returns the arrival spec of every file in the bundled library
// that has one: a scenario's workload, or a sweep's or capacity plan's base
// workload.
func librarySpecs(t *testing.T) []Spec {
	t.Helper()
	type workload struct {
		Arrival *ArrivalSpec `json:"arrival"`
		Cohorts []CohortSpec `json:"cohorts"`
		Phases  []PhaseSpec  `json:"phases"`
	}
	type file struct {
		Workload workload `json:"workload"`
		Base     struct {
			Workload workload `json:"workload"`
		} `json:"base"`
	}
	parse := func(data []byte) (file, error) {
		var f file
		return f, json.Unmarshal(data, &f)
	}
	var specs []Spec
	for _, kind := range []string{"scenarios", "sweeps", "capacity"} {
		for _, f := range examples.Load(kind, parse) {
			for _, w := range []workload{f.Workload, f.Base.Workload} {
				if w.Arrival != nil {
					specs = append(specs, Spec{Arrival: *w.Arrival, Cohorts: w.Cohorts, Phases: w.Phases})
				}
			}
		}
	}
	if len(specs) == 0 {
		t.Fatal("the library holds no arrival spec")
	}
	return specs
}

// randomSpec draws a valid spec over every process, with up to four
// cohorts (named and default, padded and not) and up to three phases.
func randomSpec(rng *rand.Rand) Spec {
	procs := []string{"", ProcessPoisson, ProcessGamma, ProcessWeibull, ProcessConstant}
	s := Spec{Arrival: ArrivalSpec{Process: procs[rng.Intn(len(procs))], Rate: 0.5 + rng.Float64()*5000}}
	if s.Arrival.Process == ProcessGamma || s.Arrival.Process == ProcessWeibull {
		s.Arrival.Shape = []float64{0, 0.3, 1, 2.5}[rng.Intn(4)]
	}
	for i := rng.Intn(5); i > 0; i-- {
		c := CohortSpec{Weight: float64(rng.Intn(4)), Keys: rng.Intn(3) * rng.Intn(50000), TxBytes: rng.Intn(3) * rng.Intn(200)}
		if rng.Intn(2) == 0 {
			c.Name = []string{"hot", "wide", "a-much-longer-cohort-name"}[rng.Intn(3)]
		}
		s.Cohorts = append(s.Cohorts, c)
	}
	for i := rng.Intn(4); i > 0; i-- {
		s.Phases = append(s.Phases, PhaseSpec{Duration: 1 + rng.Int63n(500), RateFactor: float64(rng.Intn(4)) / 2})
	}
	return s
}

// TestScheduleMatchesFrozen: Schedule, now a wrapper over Generate, returns
// what the frozen generator returns — every arrival's instant, cohort, key
// and payload, and each payload's capacity clipped to its length — over the
// library's arrival specs and 300 seeded random ones.
func TestScheduleMatchesFrozen(t *testing.T) {
	specs := librarySpecs(t)
	rng := rand.New(rand.NewSource(39))
	for len(specs) < 300 {
		if s := randomSpec(rng); s.Validate() == nil {
			specs = append(specs, s)
		}
	}
	for i, s := range specs {
		count, seed := 1+rng.Intn(2000), rng.Int63()
		got, err := s.Schedule(count, seed)
		want, wantErr := frozenSchedule(s, count, seed)
		if err != nil || wantErr != nil {
			t.Fatalf("spec %d %+v: Schedule error %v, frozen error %v", i, s, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("spec %d %+v, %d arrivals, seed %d: Schedule differs from the frozen generator", i, s, count, seed)
		}
		for j := range got {
			if cap(got[j].Payload) != len(got[j].Payload) {
				t.Fatalf("spec %d arrival %d: payload capacity %d past its length %d", i, j, cap(got[j].Payload), len(got[j].Payload))
			}
		}
	}
}
