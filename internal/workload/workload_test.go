package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"tetrabft/internal/types"
)

func mustSchedule(t *testing.T, s Spec, count int, seed int64) []Arrival {
	t.Helper()
	arr, err := s.Schedule(count, seed)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(arr) != count {
		t.Fatalf("Schedule returned %d arrivals, want %d", len(arr), count)
	}
	return arr
}

func scheduleBytes(t *testing.T, s Spec, count int, seed int64) string {
	t.Helper()
	b, err := json.Marshal(mustSchedule(t, s, count, seed))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func TestScheduleRunTwiceByteIdentical(t *testing.T) {
	specs := []Spec{
		{Arrival: ArrivalSpec{Rate: 50}},
		{Arrival: ArrivalSpec{Process: ProcessGamma, Rate: 20, Shape: 0.5}},
		{Arrival: ArrivalSpec{Process: ProcessWeibull, Rate: 80, Shape: 2}},
		{Arrival: ArrivalSpec{Process: ProcessConstant, Rate: 10}},
		{
			Arrival: ArrivalSpec{Rate: 40},
			Cohorts: []CohortSpec{{Name: "small", Weight: 3, Keys: 8}, {Name: "big", Weight: 1, TxBytes: 256}},
			Phases:  []PhaseSpec{{Duration: 200, RateFactor: 1}, {Duration: 100, RateFactor: 0}, {Duration: 50, RateFactor: 4}},
		},
	}
	for i, s := range specs {
		for _, seed := range []int64{1, 2, 99} {
			a := scheduleBytes(t, s, 200, seed)
			b := scheduleBytes(t, s, 200, seed)
			if a != b {
				t.Errorf("spec %d seed %d: run-twice schedules differ", i, seed)
			}
		}
		if scheduleBytes(t, s, 100, 1) == scheduleBytes(t, s, 100, 2) {
			t.Errorf("spec %d: seeds 1 and 2 produced identical schedules", i)
		}
	}
}

func TestScheduleGOMAXPROCSIndependent(t *testing.T) {
	s := Spec{
		Arrival: ArrivalSpec{Process: ProcessGamma, Rate: 30, Shape: 2},
		Cohorts: []CohortSpec{{Weight: 1}, {Weight: 2, Keys: 4, TxBytes: 64}},
		Phases:  []PhaseSpec{{Duration: 300, RateFactor: 1}, {Duration: 300, RateFactor: 2}},
	}
	prev := runtime.GOMAXPROCS(1)
	one := scheduleBytes(t, s, 500, 7)
	runtime.GOMAXPROCS(4)
	four := scheduleBytes(t, s, 500, 7)
	runtime.GOMAXPROCS(prev)
	if one != four {
		t.Fatal("schedule differs between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
}

// TestEmpiricalRate checks the measured mean inter-arrival against the spec
// for every process, per seed: the last arrival of n txs at rate R per 100
// ticks should land near n*100/R.
func TestEmpiricalRate(t *testing.T) {
	const n, rate = 4000, 25.0
	want := float64(n) * 100 / rate
	for _, tc := range []struct {
		name string
		spec Spec
		tol  float64 // relative tolerance on the end time
	}{
		{"poisson", Spec{Arrival: ArrivalSpec{Process: ProcessPoisson, Rate: rate}}, 0.10},
		{"gamma-bursty", Spec{Arrival: ArrivalSpec{Process: ProcessGamma, Rate: rate, Shape: 0.5}}, 0.10},
		{"gamma-smooth", Spec{Arrival: ArrivalSpec{Process: ProcessGamma, Rate: rate, Shape: 4}}, 0.10},
		{"weibull-heavy", Spec{Arrival: ArrivalSpec{Process: ProcessWeibull, Rate: rate, Shape: 0.7}}, 0.15},
		{"weibull-light", Spec{Arrival: ArrivalSpec{Process: ProcessWeibull, Rate: rate, Shape: 2}}, 0.10},
		{"constant", Spec{Arrival: ArrivalSpec{Process: ProcessConstant, Rate: rate}}, 0.001},
	} {
		for _, seed := range []int64{1, 17, 42} {
			arr := mustSchedule(t, tc.spec, n, seed)
			end := float64(arr[n-1].At)
			if rel := math.Abs(end-want) / want; rel > tc.tol {
				t.Errorf("%s seed %d: %d arrivals span %.0f ticks, want ~%.0f (rel err %.3f > %.3f)",
					tc.name, seed, n, end, want, rel, tc.tol)
			}
			for i := 1; i < n; i++ {
				if arr[i].At < arr[i-1].At {
					t.Fatalf("%s seed %d: arrivals out of order at %d", tc.name, seed, i)
				}
			}
		}
	}
}

func TestPhasesShapeTheStream(t *testing.T) {
	// 100-tick on / 100-tick off square wave: no arrivals may land in a
	// silent window, and the on-windows carry the full rate.
	s := Spec{
		Arrival: ArrivalSpec{Process: ProcessConstant, Rate: 20},
		Phases:  []PhaseSpec{{Duration: 100, RateFactor: 1}, {Duration: 100, RateFactor: 0}},
	}
	arr := mustSchedule(t, s, 100, 1)
	for _, a := range arr {
		if off := int64(a.At) % 200; off >= 100 {
			t.Fatalf("arrival at %d lands in a silent window (offset %d)", a.At, off)
		}
	}

	// A 4x spike phase must be denser than the baseline phase.
	s2 := Spec{
		Arrival: ArrivalSpec{Rate: 10},
		Phases:  []PhaseSpec{{Duration: 500, RateFactor: 1}, {Duration: 500, RateFactor: 4}},
	}
	arr2 := mustSchedule(t, s2, 2000, 3)
	base, spike := 0, 0
	for _, a := range arr2 {
		if int64(a.At)%1000 < 500 {
			base++
		} else {
			spike++
		}
	}
	if spike < 2*base {
		t.Fatalf("spike windows got %d arrivals vs %d baseline — rate factor not applied", spike, base)
	}
}

func TestCohortsMixKeysAndSizes(t *testing.T) {
	s := Spec{
		Arrival: ArrivalSpec{Rate: 50},
		Cohorts: []CohortSpec{
			{Name: "hot", Weight: 3, Keys: 2},
			{Name: "cold", Weight: 1, Keys: 1000, TxBytes: 200},
		},
	}
	arr := mustSchedule(t, s, 2000, 5)
	counts := [2]int{}
	seen := map[string]bool{}
	for _, a := range arr {
		counts[a.Cohort]++
		name := [2]string{"hot", "cold"}[a.Cohort]
		if !strings.HasPrefix(a.Key, name+"-k") {
			t.Fatalf("cohort %d key %q lacks prefix %q", a.Cohort, a.Key, name+"-k")
		}
		if a.Cohort == 1 && len(a.Payload) != 200 {
			t.Fatalf("cold cohort payload is %d bytes, want padded to 200", len(a.Payload))
		}
		p := string(a.Payload)
		if seen[p] {
			t.Fatalf("duplicate payload %q", p)
		}
		seen[p] = true
	}
	// 3:1 weights → hot share ~0.75.
	share := float64(counts[0]) / float64(len(arr))
	if share < 0.70 || share > 0.80 {
		t.Fatalf("hot cohort share %.3f, want ~0.75", share)
	}
	// hot key space has exactly 2 keys.
	hotKeys := map[string]bool{}
	for _, a := range arr {
		if a.Cohort == 0 {
			hotKeys[a.Key] = true
		}
	}
	if len(hotKeys) != 2 {
		t.Fatalf("hot cohort used %d distinct keys, want 2", len(hotKeys))
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := Spec{
		Arrival: ArrivalSpec{Process: ProcessWeibull, Rate: 12.5, Shape: 0.8},
		Cohorts: []CohortSpec{{Name: "a", Weight: 2.5, Keys: 16, TxBytes: 128}, {Name: "b"}},
		Phases:  []PhaseSpec{{Duration: 250, RateFactor: 1.5}, {Duration: 50, RateFactor: 0}},
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Spec
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("strict decode: %v", err)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatalf("remarshal: %v", err)
	}
	if string(b) != string(b2) {
		t.Fatalf("round trip changed spec:\n  %s\n  %s", b, b2)
	}
	// Every declared field must survive the trip.
	if back.Arrival != s.Arrival || len(back.Cohorts) != 2 || back.Cohorts[0] != s.Cohorts[0] ||
		len(back.Phases) != 2 || back.Phases[0] != s.Phases[0] {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"zero rate", Spec{}, "must be positive"},
		{"negative rate", Spec{Arrival: ArrivalSpec{Rate: -3}}, "must be positive"},
		{"unknown process", Spec{Arrival: ArrivalSpec{Process: "pareto", Rate: 1}}, "unknown arrival process"},
		{"shape on poisson", Spec{Arrival: ArrivalSpec{Process: ProcessPoisson, Rate: 1, Shape: 2}}, "gamma and weibull"},
		{"negative weight", Spec{Arrival: ArrivalSpec{Rate: 1}, Cohorts: []CohortSpec{{Weight: -1}}}, "negative"},
		{"huge tx_bytes", Spec{Arrival: ArrivalSpec{Rate: 1}, Cohorts: []CohortSpec{{TxBytes: 1 << 17}}}, "exceeds"},
		{"zero duration", Spec{Arrival: ArrivalSpec{Rate: 1}, Phases: []PhaseSpec{{Duration: 0, RateFactor: 1}}}, "must be positive"},
		{"negative factor", Spec{Arrival: ArrivalSpec{Rate: 1}, Phases: []PhaseSpec{{Duration: 10, RateFactor: -1}}}, "negative"},
		{"all silent", Spec{Arrival: ArrivalSpec{Rate: 1}, Phases: []PhaseSpec{{Duration: 10, RateFactor: 0}}}, "never starts"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted invalid spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	ok := Spec{Arrival: ArrivalSpec{Process: ProcessGamma, Rate: 5, Shape: 0.5}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestDistributionShapesDiffer(t *testing.T) {
	// Same mean rate, different processes: variance of inter-arrivals must
	// order bursty > poisson > smooth > constant.
	variance := func(s Spec) float64 {
		arr := mustSchedule(t, s, 3000, 11)
		gaps := make([]float64, 0, len(arr)-1)
		mean := 0.0
		for i := 1; i < len(arr); i++ {
			g := float64(arr[i].At - arr[i-1].At)
			gaps = append(gaps, g)
			mean += g
		}
		mean /= float64(len(gaps))
		v := 0.0
		for _, g := range gaps {
			v += (g - mean) * (g - mean)
		}
		return v / float64(len(gaps))
	}
	rate := 20.0
	bursty := variance(Spec{Arrival: ArrivalSpec{Process: ProcessGamma, Rate: rate, Shape: 0.3}})
	pois := variance(Spec{Arrival: ArrivalSpec{Rate: rate}})
	smooth := variance(Spec{Arrival: ArrivalSpec{Process: ProcessGamma, Rate: rate, Shape: 5}})
	konst := variance(Spec{Arrival: ArrivalSpec{Process: ProcessConstant, Rate: rate}})
	if !(bursty > pois && pois > smooth && smooth > konst) {
		t.Fatalf("variance ordering wrong: bursty=%.1f poisson=%.1f smooth=%.1f constant=%.1f",
			bursty, pois, smooth, konst)
	}
	if konst != 0 {
		t.Fatalf("constant process has nonzero variance %v", konst)
	}
}

func TestScheduleArrivalTimesQuantizeStably(t *testing.T) {
	// types.Time truncation must never make a later arrival precede an
	// earlier one, and the generator must tolerate very high rates (many
	// arrivals on one tick).
	s := Spec{Arrival: ArrivalSpec{Rate: 100000}}
	arr := mustSchedule(t, s, 1000, 1)
	for i := 1; i < len(arr); i++ {
		if arr[i].At < arr[i-1].At {
			t.Fatalf("non-monotone arrival times at %d", i)
		}
	}
}

// scheduleFmt is Schedule as it was written with fmt, kept as the reference
// for the byte-level format of keys and payloads.
func scheduleFmt(s Spec, count int, seed int64) []Arrival {
	cohorts := s.Cohorts
	if len(cohorts) == 0 {
		cohorts = []CohortSpec{{}}
	}
	weights := make([]float64, len(cohorts))
	totalW := 0.0
	for i, c := range cohorts {
		weights[i] = cohortWeight(c)
		totalW += weights[i]
	}
	r := newRNG(seed)
	out := make([]Arrival, 0, count)
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
		c := cohorts[ci]
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("c%d", ci)
		}
		key := fmt.Sprintf("%s-k%04d", name, r.intn(cohortKeys(c)))
		payload := []byte(fmt.Sprintf("wtx-%08d|%s|", i, key))
		for len(payload) < c.TxBytes {
			payload = append(payload, '.')
		}
		out = append(out, Arrival{At: types.Time(t), Cohort: ci, Key: key, Payload: payload})
	}
	return out
}

// TestScheduleMatchesFmtFormula compares Schedule byte for byte with the fmt
// formulation across named and default cohort names (c0..c11, so two-digit
// indices too), key spaces from 1 to 5-digit keys, and TxBytes below, at and
// above the natural payload length.
func TestScheduleMatchesFmtFormula(t *testing.T) {
	many := make([]CohortSpec, 12)
	for i := range many {
		many[i] = CohortSpec{Keys: 1 + i*i*i*20, TxBytes: i * 7}
	}
	specs := []Spec{
		{Arrival: ArrivalSpec{Rate: 50}},
		{Arrival: ArrivalSpec{Rate: 50}, Cohorts: []CohortSpec{{Name: "hot", Keys: 1}, {Name: "wide", Keys: 99999, TxBytes: 300}}},
		{Arrival: ArrivalSpec{Rate: 50}, Cohorts: []CohortSpec{{TxBytes: 10}, {TxBytes: 24}, {TxBytes: 25}, {Name: "x"}}},
		{Arrival: ArrivalSpec{Process: ProcessGamma, Rate: 5, Shape: 0.5}, Cohorts: many},
	}
	for i, s := range specs {
		for _, seed := range []int64{1, 2, 77} {
			got := mustSchedule(t, s, 3000, seed)
			want := scheduleFmt(s, 3000, seed)
			for j := range want {
				g, w := got[j], want[j]
				if g.At != w.At || g.Cohort != w.Cohort || g.Key != w.Key || string(g.Payload) != string(w.Payload) {
					t.Fatalf("spec %d seed %d arrival %d: got %+v (payload %q), fmt formula gives %+v (payload %q)",
						i, seed, j, g, g.Payload, w, w.Payload)
				}
			}
		}
	}
}

// TestAppendZeroPad covers the widths Schedule uses beyond the counts a
// schedule test can reach (arrival indices of 9+ digits).
func TestAppendZeroPad(t *testing.T) {
	for _, width := range []int{4, 8} {
		for _, v := range []int{0, 7, 42, 999, 1000, 9999, 10000, 12345678, 99999999, 100000000, min(1<<40, math.MaxInt)} {
			if got, want := string(appendZeroPad([]byte("p"), v, width)), fmt.Sprintf("p%0*d", width, v); got != want {
				t.Errorf("appendZeroPad(%d, %d) = %q, want %q", v, width, got, want)
			}
		}
	}
}

func BenchmarkSchedule(b *testing.B) {
	s := Spec{
		Arrival: ArrivalSpec{Process: ProcessGamma, Rate: 100, Shape: 0.5},
		Cohorts: []CohortSpec{{Weight: 3, Keys: 8}, {Weight: 1, TxBytes: 256}},
		Phases:  []PhaseSpec{{Duration: 500, RateFactor: 1}, {Duration: 500, RateFactor: 3}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(1000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleSpec_Schedule() {
	s := Spec{Arrival: ArrivalSpec{Process: ProcessConstant, Rate: 10}}
	arr, _ := s.Schedule(3, 1)
	for _, a := range arr {
		fmt.Printf("%d %s\n", a.At, a.Payload)
	}
	// Output:
	// 10 wtx-00000000|c0-k0038|
	// 20 wtx-00000001|c0-k0042|
	// 30 wtx-00000002|c0-k0034|
}

// TestScheduleAllocsFlat pins that Schedule allocates by the slab: the
// count is the same for 1,000 arrivals as for 60,000, across two cohorts
// (one padded), so no allocation is made per arrival. The collector is off
// while it counts, so that its own allocations do not blur the counts.
func TestScheduleAllocsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := Spec{
		Arrival: ArrivalSpec{Rate: 3000},
		Cohorts: []CohortSpec{{Weight: 3}, {Name: "wide", Keys: 100000, TxBytes: 64}},
	}
	allocs := func(count int) float64 {
		return testing.AllocsPerRun(3, func() {
			if arr, err := s.Schedule(count, 1); err != nil || len(arr) != count {
				t.Fatalf("Schedule(%d): %d arrivals, %v", count, len(arr), err)
			}
		})
	}
	small, large := allocs(1000), allocs(60000)
	if small != large || large > 10 {
		t.Fatalf("Schedule: %.0f allocations for 1,000 arrivals, %.0f for 60,000; want equal and <= 10", small, large)
	}
}
