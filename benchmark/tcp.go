package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"tetrabft/internal/types"
)

// tcpSpec is one cluster-harness workload's shape. Everything that scales
// with the run length is derived from the -seconds argument.
type tcpSpec struct {
	name  string
	batch int
	// rate is the open-loop Poisson rate in tx/s; 0 means fixed work: every
	// transaction is due at t=0 and the clock runs until the last commit.
	rate float64
	// fixedPerRun sizes the backlog of one fixed-work round.
	fixedPerRun int
	warmup      time.Duration
	// crash kills replica 1 at killAt and relaunches it at restartAt, both
	// as shares of the measured window.
	crash             bool
	killAt, restartAt float64
	// disk is what the replicas persist to (disk.go); the zero value is the
	// model disk.
	disk diskKind
	// cooldown is how long past the measured window the open loop keeps
	// sending, unmeasured, while operations of the window are uncommitted.
	// A degraded cluster hands the oldest transactions in the pool to
	// proposals that the next view change aborts — 64 per view timeout with
	// a replica down, 192 once it is back and far behind — so what is left
	// of a window commits only while new arrivals keep the pool deeper
	// than that: with the last arrival, the last operations would starve.
	cooldown time.Duration
}

var tcpSpecs = map[string]tcpSpec{
	"tcp-steady":        {name: "tcp-steady", batch: 64, rate: 2000, warmup: time.Second},
	"tcp-saturate":      {name: "tcp-saturate", batch: 128, fixedPerRun: 200000, disk: diskNone},
	"tcp-crash-restart": {name: "tcp-crash-restart", batch: 64, rate: 200, warmup: time.Second, crash: true, killAt: 0.25, restartAt: 0.55, cooldown: 20 * time.Second},
}

const (
	crashedReplica = types.NodeID(1)
	// commitGrace is how long after the last due time a transaction may
	// still commit before it counts as failed.
	commitGrace = 2 * time.Second
)

// tcpInputs is what the seed determines: transaction bodies and, for an
// open loop, their due times.
type tcpInputs struct {
	txs [][]byte
	due []time.Duration // nil for fixed work
}

func makeTCPInputs(spec tcpSpec, seed int64, measure time.Duration) tcpInputs {
	rng := rand.New(rand.NewSource(seed))
	var in tcpInputs
	// A fixed-work round is sized to take about two thirds of a run of the
	// default length on a 2-core host, and shrinks with shorter runs.
	n := spec.fixedPerRun
	if measure < runSeconds*time.Second {
		n = int(float64(n) * measure.Seconds() / runSeconds)
	}
	if spec.rate > 0 {
		in.due = poissonSchedule(rng, spec.rate, spec.warmup+measure+spec.cooldown)
		n = len(in.due)
	}
	filler := make([]byte, txBytes-8)
	in.txs = make([][]byte, n)
	for i := range in.txs {
		rng.Read(filler)
		in.txs[i] = makeTx(uint64(i), filler)
	}
	return in
}

// tcpRun is the raw outcome of one cluster run, before any metric is
// derived from it.
type tcpRun struct {
	spec     tcpSpec
	in       tcpInputs
	measure  time.Duration
	sent     int // first attempts handed to the pool (an open loop may stop inside its cool-down)
	led      *ledger
	setup    time.Duration // harness start → first finalized slot
	runAt    time.Duration // c.run(), as an offset from the cluster epoch
	genAt    time.Duration // generator start (open loop) or runAt (fixed work)
	lag      []time.Duration
	ref      []sample // diskReal only: reference-write cost, times relative to the measured window
	proc     procDelta
	commits  []slotCommit
	links    peerTotals
	closedAt time.Duration
	// opCommit[i] is the earliest commit of any attempt at operation i (-1 =
	// none); txDue[seq] is when transaction seq was due or, for a retry,
	// sent, as an offset from genAt (nil for fixed work). Without a
	// retrying client every operation is its one transaction.
	opCommit   []time.Duration
	txDue      []time.Duration
	retries    int
	duplicates int
	// Crash workload: when the fault injector actually acted, and how many
	// slots the relaunched replica had re-adopted when the run closed.
	killedAt, restartedAt time.Duration
	readopted             int
	// Traced runs only.
	probe       *loopProbe
	drains      []drainRec
	allDecideAt map[types.Slot]time.Duration
	persistErrs int
	counters    map[string]int64
}

type peerTotals struct{ reconnects, dropped int64 }

// startCluster builds a cluster, pre-fills the pool when the work is fixed,
// starts it and waits for the first finalized slot: the set-up every
// cluster workload pays before it can measure anything.
func startCluster(spec tcpSpec, in tcpInputs, tr *tracer, onCommit func([][]byte)) (*cluster, time.Duration, time.Time, error) {
	t0 := time.Now()
	limit := 0
	if in.due == nil {
		limit = len(in.txs)
	}
	c, err := newCluster(spec.batch, limit, spec.disk, tr)
	if err != nil {
		return nil, 0, time.Time{}, err
	}
	c.onCommit = onCommit
	if in.due == nil {
		// The scenario engine's tx_rate=0 semantics: the whole stream is in
		// the arrival-gated pool, due at tick 0, before the replicas start.
		for _, tx := range in.txs {
			c.pool.Submit(0, tx)
		}
	}
	runAt := c.run()
	select {
	case <-c.first:
	case <-time.After(10 * time.Second):
		c.close()
		c.cleanup()
		return nil, 0, time.Time{}, fmt.Errorf("%s: no slot finalized within 10 s of start", spec.name)
	}
	return c, time.Since(t0), runAt, nil
}

// measureSetups repeats the workload's set-up (and tears it down again) to
// get a steadier figure than the single set-up of the measured run. Each
// starts from a collected heap: a set-up takes milliseconds, and whether a
// collection cycle happened to fall into it decided the figure of a whole
// run.
func measureSetups(reps int, setup func() (time.Duration, error)) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < reps; i++ {
		runtime.GC()
		d, err := setup()
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// runTCPWorkload drives one cluster run end to end and passes the
// correctness gate; tr is nil for the untraced run.
func runTCPWorkload(spec tcpSpec, in tcpInputs, measure time.Duration, tr *tracer) (*tcpRun, error) {
	client := newRetrier(in.txs)
	c, setup, runAt, err := startCluster(spec, in, tr, client.committedTxs)
	if err != nil {
		return nil, err
	}
	client.pool, client.start = c.pool, runAt
	defer c.cleanup()
	defer c.close()
	r := &tcpRun{spec: spec, in: in, measure: measure, sent: len(in.txs), setup: setup, runAt: runAt.Sub(c.epoch)}
	if tr != nil {
		r.probe = startLoopProbe(c)
	}

	restarted := types.NodeID(-1)
	var pw *procWindow
	var rp *refProbe
	if in.due == nil {
		// Fixed work: the clock started at run(); CPU is counted from the
		// first finalized slot, which set-up already waited for.
		r.genAt = r.runAt
		pw = startProcWindow()
		if spec.disk == diskReal {
			if rp, err = startRefProbe(runAt); err != nil {
				return nil, err
			}
		}
		client.prefilled()
		// A healthy cluster drains the backlog in under measure; one that
		// has not after four times that is wedged.
		wedged := time.Now().Add(4 * measure)
		for {
			for c.pool.Len() > 0 {
				if time.Now().After(wedged) {
					return nil, fmt.Errorf("%s: %d transactions still queued after %v", spec.name, c.pool.Len(), 4*measure)
				}
				time.Sleep(2 * time.Millisecond)
			}
			c.drainAndSettle(commitGrace)
			if client.resubmitMissing() == 0 || time.Now().After(wedged) {
				break
			}
		}
	} else {
		genStart := time.Now()
		r.genAt = genStart.Sub(c.epoch)
		if spec.disk == diskReal {
			if rp, err = startRefProbe(genStart.Add(spec.warmup)); err != nil {
				return nil, err
			}
		}
		faultErr := make(chan error, 1)
		if spec.crash {
			restarted = crashedReplica
			go func() {
				time.Sleep(time.Until(genStart.Add(spec.warmup + time.Duration(spec.killAt*float64(measure)))))
				c.kill(crashedReplica)
				r.killedAt = time.Since(c.epoch)
				time.Sleep(time.Until(genStart.Add(spec.warmup + time.Duration(spec.restartAt*float64(measure)))))
				r.restartedAt = time.Since(c.epoch)
				faultErr <- c.restart(crashedReplica)
			}()
		} else {
			faultErr <- nil
		}
		client.start = genStart
		client.run()
		firstMeasured := sort.Search(len(in.due), func(i int) bool { return in.due[i] >= spec.warmup })
		afterMeasured := sort.Search(len(in.due), func(i int) bool { return in.due[i] >= spec.warmup+measure })
		lag := runOpenLoop(genStart, in.due, func(i int) bool {
			if i == firstMeasured {
				pw = startProcWindow()
			}
			if i == afterMeasured { // CPU is counted over the window, not the cool-down
				r.proc = pw.stop()
				pw = nil
			}
			if i >= afterMeasured && client.committedBelow(afterMeasured) {
				return false // cool-down: the window's operations are all in
			}
			client.first(i)
			return true
		})
		r.sent, r.lag = len(lag), lag[firstMeasured:afterMeasured]
		if pw != nil { // no cool-down: the window ended with the schedule
			r.proc = pw.stop()
			pw = nil
		}
		if err := <-faultErr; err != nil {
			client.halt()
			return nil, fmt.Errorf("%s: restart: %w", spec.name, err)
		}
		client.waitBelow(afterMeasured, time.Now().Add(retryDeadline))
		client.halt()
		c.drainAndSettle(commitGrace)
	}
	if pw != nil { // fixed work: CPU is counted to the last commit
		r.proc = pw.stop()
	}
	if rp != nil {
		if r.ref, err = rp.halt(); err != nil {
			return nil, err
		}
	}
	if r.probe != nil {
		r.probe.halt()
	}
	r.closedAt = time.Since(c.epoch)
	c.close()

	opOf := client.opOf
	r.retries = len(opOf)
	if in.due != nil {
		r.txDue = append(append([]time.Duration(nil), in.due...), client.sentAt...)
	}
	if r.led, err = c.verify(len(in.txs)+len(opOf), restarted); err != nil {
		return nil, fmt.Errorf("%s: correctness: %w", spec.name, err)
	}
	r.opCommit = append([]time.Duration(nil), r.led.commitOf[:len(in.txs)]...)
	for k, op := range opOf {
		at := r.led.commitOf[len(in.txs)+k]
		switch {
		case at < 0:
		case r.opCommit[op] < 0:
			r.opCommit[op] = at
		default:
			r.duplicates++
			if at < r.opCommit[op] {
				r.opCommit[op] = at
			}
		}
	}
	r.commits = c.commits
	st := c.linkStats()
	r.links = peerTotals{reconnects: st.Reconnects, dropped: st.DroppedFrames}
	if spec.crash {
		r.readopted = len(c.reps[crashedReplica].node.FinalizedChain())
	}
	if tr != nil {
		r.drains, r.allDecideAt, r.persistErrs = c.drains, c.allDecideAt, c.persistErrs
		r.counters = map[string]int64{}
		for _, s := range c.reg.Snapshot() {
			r.counters[s.Name] = s.Value
		}
	}
	return r, nil
}

// measuredSamples returns the commit latency (from the due time) of every
// measured operation that committed, the count that were due in the
// measured window, and how many of those never committed.
func (r *tcpRun) measuredSamples() (samples []sample, attempted, uncommitted int) {
	for seq := range r.in.txs {
		var due time.Duration
		if r.in.due != nil {
			if due = r.in.due[seq]; due < r.spec.warmup || due >= r.spec.warmup+r.measure {
				continue
			}
		}
		attempted++
		at := r.opCommit[seq]
		if at < 0 {
			uncommitted++
			continue
		}
		samples = append(samples, sample{at: due - r.spec.warmup, dur: at - (r.genAt + due)})
	}
	return samples, attempted, uncommitted
}

// rate is a fixed-work round's throughput: operations committed over the
// time from Run() to the last commit.
func (r *tcpRun) rate() float64 {
	s, _, _ := r.measuredSamples()
	return float64(len(s)) / (r.lastCommit() - r.runAt).Seconds()
}

// lastCommit is the commit time of the last measured transaction.
func (r *tcpRun) lastCommit() time.Duration {
	var last time.Duration
	for _, at := range r.led.commitOf {
		if at > last {
			last = at
		}
	}
	return last
}
