package workload

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tetrabft/internal/types"
)

// replay is a generator that hands a list to its sink, pausing now and then
// when pause is set, so that readers catch the producer mid-stream.
func replay(list []Arrival, pause time.Duration) func(Sink) {
	return func(dst Sink) {
		for i, a := range list {
			if pause > 0 && i%97 == 0 {
				time.Sleep(pause)
			}
			dst.Arrive(a.At, a.Cohort, a.Key, a.Payload)
		}
	}
}

// split is the reference for a produced stream: list dealt to parts
// columns by home, in arrival order.
func split(list []Arrival, parts int, home func(j int, key string) int) []Column {
	cols := make([]Column, parts)
	for j, a := range list {
		i := 0
		if home != nil {
			i = home(j, a.Key)
		}
		cols[i].At = append(cols[i].At, a.At)
		cols[i].Payloads = append(cols[i].Payloads, a.Payload)
	}
	return cols
}

// TestProducerMatchesSchedule produces seeded schedules into one to four
// columns, with and without a slowed generator, and has one reader per
// column sync to random, growing instants (some before the first arrival,
// some repeated, one past the last) from a goroutine of its own: after each
// Sync(now), the reader holds every arrival of its column at or before now,
// in order, and a prefix of the reference; once complete, the whole
// reference column.
func TestProducerMatchesSchedule(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		count := []int{1, 255, 256, 257, 3000}[rng.Intn(5)]
		list := mustSchedule(t, Spec{Arrival: ArrivalSpec{Rate: 50 + rng.Float64()*500}}, count, seed)
		parts := 1 + rng.Intn(4)
		var home func(j int, key string) int
		if parts > 1 {
			home = func(j int, key string) int { return (j + len(key)) % parts }
		}
		want := split(list, parts, home)
		var pause time.Duration
		if seed%2 == 0 {
			pause = 50 * time.Microsecond
		}
		p := Produce(count, parts, home, replay(list, pause))
		var wg sync.WaitGroup
		errs := make([]string, parts)
		for i := 0; i < parts; i++ {
			nows := make([]types.Time, 20)
			for k := range nows {
				nows[k] = types.Time(rng.Intn(int(list[len(list)-1].At) + 2))
			}
			slices.Sort(nows)
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := p.Reader(i)
				for _, now := range append(nows, 1<<40) {
					r.Sync(now)
					if !isPrefix(r.Column, want[i]) {
						errs[i] = "the reader's column is not a prefix of the reference"
						return
					}
					if n := arrivedBy(want[i].At, now); len(r.At) < n {
						errs[i] = "a synced reader misses an arrival at or before its instant"
						return
					}
				}
				if r.SyncAll(); len(r.At) != len(want[i].At) || !isPrefix(r.Column, want[i]) {
					errs[i] = "the complete column differs from the reference"
				}
			}()
		}
		wg.Wait()
		p.Close()
		if msg := strings.Join(errs, ""); msg != "" {
			t.Fatalf("seed %d (%d arrivals, %d columns): %s", seed, count, parts, msg)
		}
	}
}

func arrivedBy(at []types.Time, now types.Time) int {
	n := 0
	for n < len(at) && at[n] <= now {
		n++
	}
	return n
}

func isPrefix(got, want Column) bool {
	if len(got.At) != len(got.Payloads) || len(got.At) > len(want.At) {
		return false
	}
	for k := range got.At {
		if got.At[k] != want.At[k] || string(got.Payloads[k]) != string(want.Payloads[k]) {
			return false
		}
	}
	return true
}

// TestProducerCloseStopsTheGenerator: Close ends a generator that would
// never finish on its own, and returns once its goroutine has exited.
func TestProducerCloseStopsTheGenerator(t *testing.T) {
	before := runtime.NumGoroutine()
	p := Produce(1000, 1, nil, func(dst Sink) {
		for i := 0; ; i++ {
			dst.Arrive(types.Time(i/4), 0, "k", nil)
		}
	})
	r := p.Reader(0)
	r.Sync(1000) // the producer is running
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not stop the generator")
	}
	// The producer's goroutine ends right after it signals its exit.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Produce", runtime.NumGoroutine(), before)
		}
	}
}

// TestProducerFaultReachesReaders: a generator's panic comes back to a
// reader waiting for arrivals it never made, and Close still joins it.
func TestProducerFaultReachesReaders(t *testing.T) {
	p := Produce(10, 1, nil, func(dst Sink) {
		dst.Arrive(1, 0, "k", []byte("p"))
		panic("generator broke")
	})
	defer p.Close()
	defer func() {
		if r := recover(); r != "generator broke" {
			t.Fatalf("Sync recovered %v, want the generator's panic", r)
		}
	}()
	r := p.Reader(0)
	r.SyncAll()
	t.Fatal("Sync returned from a failed producer")
}

// TestProducerOfNothingStartsNoGoroutine: an empty stream is complete at
// once and costs no goroutine.
func TestProducerOfNothingStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	p := Produce(0, 2, nil, func(Sink) { t.Error("the generator of an empty stream ran") })
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after Produce(0, ...), %d before", n, before)
	}
	r := p.Reader(1)
	r.SyncAll()
	if len(r.At) != 0 {
		t.Fatalf("an empty stream's column holds %d arrivals", len(r.At))
	}
	p.Close()
}
