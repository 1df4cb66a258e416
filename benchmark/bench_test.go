package main

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/multishot"
	"tetrabft/internal/types"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// One window with a stall must not set the windowed p99, though it sets the
// whole-run p99; and a window too thin for a p99 is left out.
func TestAcrossWindowsIgnoresOneBadWindow(t *testing.T) {
	var samples []sample
	for w := 0; w < 10; w++ {
		for i := 0; i < 2000; i++ {
			d := 10 * time.Millisecond
			if w == 3 && i < 100 {
				d = 400 * time.Millisecond // a 5 % slice of one window stalls
			}
			samples = append(samples, sample{at: time.Duration(w)*time.Second + time.Duration(i)*time.Microsecond, dur: d})
		}
	}
	for i := 0; i < 50; i++ { // an eleventh window with 50 samples: no p99
		samples = append(samples, sample{at: 10 * time.Second, dur: time.Second})
	}
	got, windows := acrossWindows(samples, time.Second, 99, minSamplesFor(99))
	if windows != 10 {
		t.Fatalf("used %d windows, want 10", windows)
	}
	if got != 10 {
		t.Errorf("windowed p99 = %v ms, want 10", got)
	}
	if raw := percentile(sampleMS(samples), 99.7); raw != 400 {
		t.Errorf("whole-run p99.7 = %v ms, want the stall's 400", raw)
	}
	if minSamplesFor(99) != 1000 || minSamplesFor(90) != 100 {
		t.Errorf("minSamplesFor(99), (90) = %d, %d, want 1000, 100", minSamplesFor(99), minSamplesFor(90))
	}
}

// The model disk holds each persist for modelWrite and keeps the latest
// state for a relaunch to read back.
func TestModelDiskHoldsAndKeepsTheSnapshot(t *testing.T) {
	d, err := newModelDisk()
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if _, found, _ := d.last(); found {
		t.Error("a fresh disk reports a snapshot")
	}
	const writes = 20
	start := time.Now()
	for i := 1; i <= writes; i++ {
		if err := d.Persist(multishot.PersistentState{Finalized: types.Slot(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took < writes*modelWrite || took > 3*writes*modelWrite {
		t.Errorf("%d persists took %v, want a little over %v", writes, took, writes*modelWrite)
	}
	state, found, err := d.last()
	if err != nil || !found || state.Finalized != writes {
		t.Errorf("last() = finalized %d, found %v, err %v; want the state of persist %d", state.Finalized, found, err, writes)
	}
}

// The client submits an operation again when it has not heard of a commit
// within retryAfter, under a new transaction number that maps back to the
// operation, and leaves committed operations alone.
func TestRetrierResubmitsWhatIsNotCommitted(t *testing.T) {
	ops := [][]byte{makeTx(0, []byte("a")), makeTx(1, []byte("b")), makeTx(2, []byte("c"))}
	r := newRetrier(ops)
	r.pool, r.start = blockchain.NewTimedMempool(0), time.Now()
	r.run()
	for i := range ops {
		r.first(i)
	}
	drain := r.pool.BatchSource(2)
	r.committedTxs(drain(1, 0)) // operations 0 and 1 commit
	drain(2, 0)                 // operation 2 is drained and lost
	deadline := time.Now().Add(retryAfter + time.Second)
	for r.pool.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	again := drain(3, 0)
	if len(again) != 1 {
		t.Fatalf("%d transactions resubmitted, want 1", len(again))
	}
	seq, _ := txSeq(again[0])
	if op, ok := r.opFor(seq); !ok || op != 2 || seq != 3 {
		t.Errorf("resubmission is transaction %d for operation %d, want transaction 3 for operation 2", seq, op)
	}
	r.committedTxs(again)
	r.waitBelow(len(ops), time.Now().Add(time.Second))
	r.halt()
	if r.pending != 0 || len(r.opOf) != 1 {
		t.Errorf("pending %d after every operation committed, %d retries recorded", r.pending, len(r.opOf))
	}
	if r.resubmitMissing() != 0 {
		t.Error("resubmitMissing found work after every operation committed")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if !near(q1, 1) || !near(q2, 3) || !near(q3, 4.5) {
		t.Errorf("quartiles(3,1,4,1,5) = %v %v %v, want 1 3 4.5", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

// Self time is a span's duration minus what its direct children cover:
// overlapping children count once, a child is clipped to its parent, and a
// grandchild is its own parent's business.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{name: "deliver", start: 0, end: 100, parent: -1},
		{name: "persist", start: 10, end: 30, parent: 0},
		{name: "drain", start: 20, end: 50, parent: 0},     // overlaps persist: 10..50 covered
		{name: "send", start: 90, end: 120, parent: 0},     // clipped to 90..100
		{name: "fsync", start: 12, end: 28, parent: 1},     // grandchild
		{name: "orphan", start: 200, end: 260, parent: -1}, // no children
		{name: "empty", start: 300, end: 300, parent: 5},   // zero-length child
		{name: "outside", start: 500, end: 600, parent: 5}, // wholly outside its parent
		{name: "adjacent", start: 50, end: 60, parent: 0},  // touches drain's end
	}
	want := []time.Duration{40, 4, 30, 30, 16, 60, 0, 100, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestTrackNesting(t *testing.T) {
	tr := newTracer()
	tk := tr.newTrack("t")
	outer := tk.begin("multishot.deliver", "multishot", 7)
	inner := tk.begin("wal.persist", "wal", 7)
	time.Sleep(2 * time.Millisecond)
	tk.end(inner)
	tk.end(outer)
	after := tk.begin("multishot.tick", "multishot", 8)
	tk.end(after)
	if tk.spans[inner].parent != outer || tk.spans[outer].parent != -1 || tk.spans[after].parent != -1 {
		t.Fatalf("parents = %d %d %d, want %d -1 -1", tk.spans[inner].parent, tk.spans[outer].parent, tk.spans[after].parent, outer)
	}
	f := tr.fold()
	if f.layerSelf["wal"] < 2*time.Millisecond {
		t.Errorf("wal self time %v, want at least the 2 ms slept", f.layerSelf["wal"])
	}
	if f.layerSelf["multishot"] > time.Millisecond {
		t.Errorf("multishot self time %v still includes its persist child", f.layerSelf["multishot"])
	}
	path := t.TempDir() + "/trace.json"
	written, total, err := tr.writeChromeTrace(path)
	if err != nil || written != 3 || total != 3 {
		t.Fatalf("writeChromeTrace = %d, %d, %v", written, total, err)
	}
	data, err := os.ReadFile(path)
	if err != nil || !bytes.Contains(data, []byte(`"name":"wal.persist"`)) {
		t.Errorf("trace file lacks the persist span (err %v)", err)
	}
}

// An open loop keeps its schedule: a 50 ms stall in the sink must show up in
// the latency, timed from the due time, of the requests that fell due during
// it, and in the generator's own lag figure — and not in requests due well
// after it.
func TestOpenLoopCountsAStall(t *testing.T) {
	const n = 200
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	sent := make([]time.Duration, n)
	start := time.Now()
	lag := runOpenLoop(start, due, func(i int) bool {
		sent[i] = time.Since(start)
		if i == 50 {
			time.Sleep(50 * time.Millisecond)
		}
		return i < n-10 // the sink turns request n-10 down, which ends the loop
	})
	if len(lag) != n-10 {
		t.Fatalf("loop reports %d requests sent, want %d", len(lag), n-10)
	}
	// Request 60 fell due 10 ms into the stall: it waited out the other 40.
	if got := sent[60] - due[60]; got < 35*time.Millisecond {
		t.Errorf("request due during the stall was sent %v after its due time, want about 40 ms", got)
	}
	if got := sent[150] - due[150]; got > 20*time.Millisecond {
		t.Errorf("request due 50 ms after the stall ended was still %v late", got)
	}
	if p99 := percentile(durationsMS(lag), 99); p99 < 35 {
		t.Errorf("generator lag p99 = %.1f ms, want the stall (about 48 ms) to show", p99)
	}
	if lag[10] < 0 {
		t.Errorf("request sent %v before it was due", -lag[10])
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := makeTCPInputs(tcpSpecs["tcp-steady"], 7, time.Second)
	b := makeTCPInputs(tcpSpecs["tcp-steady"], 7, time.Second)
	c := makeTCPInputs(tcpSpecs["tcp-steady"], 8, time.Second)
	if len(a.due) != len(b.due) || !bytes.Equal(a.txs[len(a.txs)-1], b.txs[len(b.txs)-1]) {
		t.Fatal("same seed, different inputs")
	}
	if len(a.due) == len(c.due) && a.due[0] == c.due[0] {
		t.Error("different seeds, same schedule")
	}
	// 2,000/s over warm-up + 1 s: about 4,000 arrivals, in order.
	if n := len(a.due); n < 3600 || n > 4400 {
		t.Errorf("%d arrivals in 2 s at 2,000/s", n)
	}
	for i := 1; i < len(a.due); i++ {
		if a.due[i] < a.due[i-1] {
			t.Fatalf("schedule not in time order at %d", i)
		}
	}
}

// BENCHMARK.json is generated from the tables in metrics.go and
// workloads.go (benchmark -manifest); this keeps the checked-in file in step.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Errorf("BENCHMARK.json is out of step with the benchmark's tables; regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
}

// Every workload for about a second with every correctness gate on, one
// after the other in this process: it also proves each workload closes what
// it opened, since the next one's goroutine baseline check would trip.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real clusters for about 12 s")
	}
	for _, w := range workloadDefs {
		res, err := runWorkload(runOpts{workload: w.name, seed: 1, seconds: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d", w.name, res.Correct, res.Attempted)
		}
		for _, d := range endToEndDefs {
			if v, ok := res.EndToEnd[d.name]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want a positive value", w.name, d.name, v.Value, ok)
			}
		}
	}
}

// A traced run reports every per-layer metric, attributes time to the
// layers it wraps, and writes the span file.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real clusters for about 6 s")
	}
	out := t.TempDir() + "/spans.json"
	res, err := runWorkload(runOpts{workload: "tcp-steady", seed: 1, seconds: 1, traced: true, traceOut: out})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayerDefs {
		if _, ok := res.PerLayer[d.name]; ok == d.gateway {
			t.Errorf("per-layer metric %s: reported %v, a gateway-mixed metric %v", d.name, ok, d.gateway)
		}
	}
	for _, name := range []string{"wal.persist_busy_s", "multishot.deliver_busy_s", "transport.send_busy_s", "blockchain.drain_count", "wal.persist_probe_us", "transport.roundtrip_us"} {
		if res.PerLayer[name].Value <= 0 {
			t.Errorf("%s = %v, want a positive value", name, res.PerLayer[name].Value)
		}
	}
	if res.PerLayer["sim.events"].Value != 0 || res.PerLayer["shard.slots_per_s"].Value != 0 {
		t.Error("a cluster workload reported simulator or shard work")
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Errorf("span file not written: %v", err)
	}
	if len(res.Budget) == 0 {
		t.Error("no latency budget table")
	}
}
