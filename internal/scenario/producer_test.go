package scenario

import (
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tetrabft/internal/sim"
	"tetrabft/internal/types"
	"tetrabft/internal/workload"
)

// The offered stream is generated on a producer goroutine beside the run
// (workload.Producer). These tests pin that this changes no result and
// leaves no goroutine behind.

// pipelineScenario is the benchmark's sim-pipeline shape (16 multishot
// nodes, a Poisson stream of 3,000 transactions per 100 ticks in batches
// of 64, stopped once every node has finalized the target) at slots slots.
func pipelineScenario(slots int64) Scenario {
	return Scenario{
		Name: "sim-pipeline", Protocol: TetraBFTMulti, Nodes: 16, Seed: 1,
		Workload: WorkloadSpec{
			Slots: slots, TxCount: int(slots) * 3000 / 100 / 2, BatchSize: 64,
			Arrival: &workload.ArrivalSpec{Process: workload.ProcessPoisson, Rate: 3000},
		},
		Stop: StopSpec{AllDecided: true},
	}
}

// withProduce runs f with produce replaced by prod.
func withProduce(prod func(int, int, func(int, string) int, func(workload.Sink)) *workload.Producer, f func()) {
	defer func(orig func(int, int, func(int, string) int, func(workload.Sink)) *workload.Producer) {
		produce = orig
	}(produce)
	produce = prod
	f()
}

// syncProduce generates the whole stream into a list on the caller's
// goroutine, the schedule as workload.Schedule returns it, and hands the
// list to a producer that has published all of it before the run starts:
// the synchronous stream every produced one must match. It keeps the
// list in *sched.
func syncProduce(sched *workload.Arrivals) func(int, int, func(int, string) int, func(workload.Sink)) *workload.Producer {
	return func(count, parts int, home func(int, string) int, gen func(workload.Sink)) *workload.Producer {
		*sched = nil
		gen(sched)
		list := *sched
		p := workload.Produce(len(list), parts, home, func(dst workload.Sink) {
			for _, a := range list {
				dst.Arrive(a.At, a.Cohort, a.Key, a.Payload)
			}
		})
		for i := 0; i < parts; i++ {
			r := p.Reader(i)
			r.SyncAll()
		}
		return p
	}
}

// slowSink pauses its generator for pause every 50 arrivals, so that the
// run catches up with the producer and waits for it.
type slowSink struct {
	workload.Sink
	pause time.Duration
	n     int
}

func (s *slowSink) Arrive(at types.Time, cohort int, key string, payload []byte) {
	if s.n++; s.n%50 == 0 {
		time.Sleep(s.pause)
	}
	s.Sink.Arrive(at, cohort, key, payload)
}

// slowProduce is workload.Produce with its generator slowed by pause.
func slowProduce(pause time.Duration) func(int, int, func(int, string) int, func(workload.Sink)) *workload.Producer {
	return func(count, parts int, home func(int, string) int, gen func(workload.Sink)) *workload.Producer {
		return workload.Produce(count, parts, home, func(dst workload.Sink) { gen(&slowSink{Sink: dst, pause: pause}) })
	}
}

// runJSON runs sc and returns its result as JSON, the error included.
func runJSON(t *testing.T, sc Scenario) string {
	t.Helper()
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestProducedStreamDeterministic pins the producer's determinism: a run of
// the sim-pipeline shape, of a sharded spec whose stream is split by key,
// and of a legacy tx_rate spec is byte-identical (as JSON) whether its
// stream was generated in full before the run (the reference, whose
// schedule is workload.Schedule's), beside it at GOMAXPROCS 1 and 2, or
// beside it by a producer slowed enough that the run waits for it.
// CI runs it once more with GOMAXPROCS=1 for the whole process.
func TestProducedStreamDeterministic(t *testing.T) {
	sharded := Scenario{
		Name: "sharded-by-key", Protocol: TetraBFTMulti, Shards: &ShardsSpec{Count: 3, AnchorInterval: 40}, Seed: 5,
		Workload: WorkloadSpec{
			Slots: 12, TxCount: 400, BatchSize: 16,
			Arrival: &workload.ArrivalSpec{Process: workload.ProcessGamma, Rate: 400, Shape: 0.5},
			Cohorts: []workload.CohortSpec{{Name: "hot", Keys: 4}, {Name: "cold", Keys: 500, TxBytes: 48}},
		},
		Stop: StopSpec{Horizon: 6000},
	}
	legacy := Scenario{
		Name: "legacy-tx-rate", Protocol: TetraBFTMulti, Nodes: 4, Seed: 3,
		Workload: WorkloadSpec{Slots: 40, TxCount: 3000, TxRate: 600, BatchSize: 32},
		Stop:     StopSpec{AllDecided: true},
	}
	for _, sc := range []Scenario{pipelineScenario(300), sharded, legacy} {
		var sched workload.Arrivals
		var want string
		withProduce(syncProduce(&sched), func() { want = runJSON(t, sc) })
		if w := sc.Workload; w.Arrival != nil {
			scale := 1
			if sc.Shards != nil {
				scale = sc.Shards.Count
			}
			a := *w.Arrival
			a.Rate *= float64(scale)
			ref, err := workload.Spec{Arrival: a, Cohorts: w.Cohorts, Phases: w.Phases}.Schedule(scale*w.TxCount, sc.Seed)
			if err != nil || !reflect.DeepEqual([]workload.Arrival(sched), ref) {
				t.Fatalf("%s: the synchronous stream is not workload.Schedule's (%v)", sc.Name, err)
			}
		}
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			got := runJSON(t, sc)
			runtime.GOMAXPROCS(prev)
			if got != want {
				t.Errorf("%s at GOMAXPROCS %d differs from the run on the synchronous stream", sc.Name, procs)
			}
		}
		var got string
		withProduce(slowProduce(200*time.Microsecond), func() { got = runJSON(t, sc) })
		if got != want {
			t.Errorf("%s with a slowed producer differs from the run on the synchronous stream", sc.Name)
		}
	}
}

// TestProducerNeverOutlivesARun: after a run, whichever way it ends, the
// goroutine count is back where it was before it: a successful run, a run
// that stops at its horizon long before a slowed producer has generated its
// stream, an exhausted event budget, an agreement violation (a mutated
// single-shot row, which carries no stream), a flat TCP run, a TCP run that
// times out with its producer seconds from done (it returns without a
// fold, so only Close stops the producer in time) and a sharded simulator
// run.
func TestProducerNeverOutlivesARun(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP runtimes in -short mode")
	}
	horizon := pipelineScenario(2000)
	horizon.Name, horizon.Stop = "horizon", StopSpec{Horizon: 30}
	budget := Scenario{Name: "budget", Protocol: TetraBFTMulti, Nodes: 4, Seed: 1,
		Network:  NetworkSpec{EventBudget: 300},
		Workload: WorkloadSpec{Slots: 20, TxCount: 20000, TxRate: 100}, Stop: StopSpec{AllDecided: true}}
	violation := lemma8Scenario()
	violation.Mutation = MutationSkipRule3
	tcp := Scenario{Name: "tcp", Protocol: TetraBFTMulti, Engine: EngineTCP, Nodes: 4,
		Workload: WorkloadSpec{Slots: 4, TxCount: 50000, BatchSize: 16,
			Arrival: &workload.ArrivalSpec{Rate: 100}}}
	stalled := tcp
	stalled.Name, stalled.Workload.Slots, stalled.Stop.WallClockMS = "tcp-timeout", 100000, 200
	sharded := Scenario{Name: "sharded", Protocol: TetraBFTMulti, Shards: &ShardsSpec{Count: 2, AnchorInterval: 40},
		Workload: WorkloadSpec{Slots: 8, TxCount: 20000, TxRate: 100}, Stop: StopSpec{Horizon: 4000}}
	for _, tc := range []struct {
		sc    Scenario
		pause time.Duration // slows the producer
		fail  func(error) bool
	}{
		{sc: pipelineScenario(100)},
		{sc: horizon, pause: 200 * time.Microsecond},
		{sc: budget, fail: func(err error) bool { return errors.Is(err, sim.ErrEventBudget) }},
		{sc: violation, fail: func(err error) bool { return errors.Is(err, ErrAgreement) }},
		{sc: tcp},
		{sc: stalled, pause: 5 * time.Millisecond, fail: func(err error) bool { return err != nil && strings.Contains(err.Error(), "timed out") }},
		{sc: sharded},
	} {
		before := runtime.NumGoroutine()
		prod := produce
		if tc.pause > 0 {
			prod = slowProduce(tc.pause)
		}
		var err error
		withProduce(prod, func() { _, err = Run(tc.sc) })
		if tc.fail == nil && err != nil || tc.fail != nil && !tc.fail(err) {
			t.Fatalf("%s: unexpected outcome %v", tc.sc.Name, err)
		}
		if err := goroutinesBack(before, 2*time.Second); err != nil {
			t.Fatalf("%s: %v", tc.sc.Name, err)
		}
	}
}
