package main

import (
	"fmt"
	"sort"
	"time"
)

// metricDef declares one metric: BENCHMARK.json lists the same names, units
// and bounds, and a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
	// gateway marks a per-layer metric only gateway-mixed produces. The
	// driver does not run that workload, so BENCHMARK.json leaves these out.
	gateway bool
}

// Every workload reports every end-to-end metric, so each is defined in
// terms of the workload's own operation (README.md has the table):
//
//	tcp-steady         a transaction, due → earliest finalization
//	tcp-saturate       a transaction of the backlog, Run() → finalization
//	tcp-crash-restart  a transaction due in the measured window; latency is
//	                   the length of a service gap after the kill
//	gateway-mixed      a write, POST → first read that returns it (reads
//	                   for throughput_per_s)
//	sim-pipeline       one scenario run (simulator events for
//	                   throughput_per_s and cpu_s_per_kop)
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_s_per_kop", unit: "s", better: "lower", bound: 0.25},
	{name: "ok_share", unit: "share", better: "higher", bound: 0.05},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25},
}

var perLayerDefs = []metricDef{
	{name: "types.encode_proposal_ns", unit: "ns", better: "lower"},
	{name: "types.decode_proposal_ns", unit: "ns", better: "lower"},
	{name: "types.encode_vote_ns", unit: "ns", better: "lower"},
	{name: "types.decode_vote_ns", unit: "ns", better: "lower"},
	{name: "types.block_id_ns", unit: "ns", better: "lower"},
	{name: "quorum.bits_vote_ns", unit: "ns", better: "lower"},
	{name: "multishot.deliver_count", unit: "count", better: "lower"},
	{name: "multishot.deliver_busy_s", unit: "s", better: "lower"},
	{name: "multishot.deliver_p50_us", unit: "us", better: "lower"},
	{name: "multishot.deliver_p99_us", unit: "us", better: "lower"},
	{name: "multishot.msgs_per_slot", unit: "count", better: "lower"},
	{name: "multishot.tick_count", unit: "count", better: "lower"},
	{name: "multishot.propose_to_commit_p50_ms", unit: "ms", better: "lower"},
	{name: "multishot.view_changes", unit: "count", better: "lower"},
	{name: "multishot.catchup_slots_per_s", unit: "1/s", better: "higher"},
	{name: "multishot.replay_ns_per_msg", unit: "ns", better: "lower"},
	{name: "multishot.replay_allocs_per_msg", unit: "count", better: "lower"},
	{name: "blockchain.drain_count", unit: "count", better: "lower"},
	{name: "blockchain.drain_busy_s", unit: "s", better: "lower"},
	{name: "blockchain.drain_p99_us", unit: "us", better: "lower"},
	{name: "blockchain.txs_per_batch", unit: "count", better: "higher"},
	{name: "blockchain.queue_wait_p50_ms", unit: "ms", better: "lower"},
	{name: "blockchain.backlog_max", unit: "count", better: "lower"},
	{name: "blockchain.drainready_us_backlog100", unit: "us", better: "lower"},
	{name: "blockchain.drainready_us_backlog50k", unit: "us", better: "lower"},
	{name: "blockchain.mempool_drain_us_backlog4k", unit: "us", better: "lower"},
	{name: "blockchain.kv_apply_block_ns", unit: "ns", better: "lower"},
	{name: "blockchain.decode_payload_ns", unit: "ns", better: "lower"},
	{name: "wal.persist_count", unit: "count", better: "lower"},
	{name: "wal.persist_busy_s", unit: "s", better: "lower"},
	{name: "wal.persist_p50_us", unit: "us", better: "lower"},
	{name: "wal.persist_p99_us", unit: "us", better: "lower"},
	{name: "wal.persists_per_slot", unit: "count", better: "lower"},
	{name: "wal.persist_errors", unit: "count", better: "lower"},
	{name: "wal.persist_probe_us", unit: "us", better: "lower"},
	{name: "wal.load_us", unit: "us", better: "lower"},
	{name: "transport.send_busy_s", unit: "s", better: "lower"},
	{name: "transport.eventloop_wait_p50_us", unit: "us", better: "lower"},
	{name: "transport.eventloop_wait_p99_us", unit: "us", better: "lower"},
	{name: "transport.eventloop_busy_share", unit: "share", better: "lower"},
	{name: "transport.frames_per_slot", unit: "count", better: "lower"},
	{name: "transport.bytes_per_tx", unit: "B", better: "lower"},
	{name: "transport.dropped_frames", unit: "count", better: "lower"},
	{name: "transport.reconnects", unit: "count", better: "lower"},
	{name: "transport.roundtrip_us", unit: "us", better: "lower"},
	{name: "transport.broadcast_n4_us", unit: "us", better: "lower"},
	{name: "transport.roundtrip_allocs", unit: "count", better: "lower"},
	{name: "shard.gateway_http_us", unit: "us", better: "lower"},
	{name: "shard.router_ns", unit: "ns", better: "lower"},
	{name: "shard.prefix_digest_us_per_kblock", unit: "us", better: "lower"},
	{name: "shard.anchor_codec_ns", unit: "ns", better: "lower"},
	{name: "shard.gateway_rejected", unit: "count", better: "lower", gateway: true},
	{name: "shard.polls_per_write", unit: "share", better: "higher", gateway: true},
	{name: "shard.slots_per_s", unit: "1/s", better: "higher", gateway: true},
	{name: "shard.anchor_epochs", unit: "count", better: "higher", gateway: true},
	{name: "scenario.submit_ack_p50_ms", unit: "ms", better: "lower", gateway: true},
	{name: "scenario.query_early_p50_ms", unit: "ms", better: "lower", gateway: true},
	{name: "scenario.query_late_p50_ms", unit: "ms", better: "lower", gateway: true},
	{name: "scenario.query_growth_ratio", unit: "ratio", better: "lower", gateway: true},
	{name: "scenario.backend_query_self_ms", unit: "ms", better: "lower", gateway: true},
	{name: "scenario.read_p50_ms", unit: "ms", better: "lower", gateway: true},
	{name: "sim.events", unit: "count", better: "lower"},
	{name: "sim.sent_bytes", unit: "B", better: "lower"},
	{name: "sim.decided_txs", unit: "count", better: "higher"},
	{name: "sim.allocs_per_event", unit: "count", better: "lower"},
	{name: "sim.alloc_bytes_per_event", unit: "B", better: "lower"},
	{name: "workload.schedule_ns_per_arrival", unit: "ns", better: "lower"},
	{name: "proc.cpu_user_s", unit: "s", better: "lower"},
	{name: "proc.cpu_sys_s", unit: "s", better: "lower"},
	{name: "proc.gc_cpu_share", unit: "share", better: "lower"},
	{name: "proc.allocs_per_op", unit: "count", better: "lower"},
	{name: "proc.goroutines_max", unit: "count", better: "lower"},
	{name: "bench.generator_lag_p99_ms", unit: "ms", better: "lower"},
	{name: "bench.latency_p50_raw_ms", unit: "ms", better: "lower"},
	{name: "bench.latency_tail_ms", unit: "ms", better: "lower"},
	{name: "bench.write_visible_p50_ms", unit: "ms", better: "lower", gateway: true},
	{name: "bench.write_visible_p90_ms", unit: "ms", better: "lower", gateway: true},
	{name: "bench.write_visible_slots", unit: "count", better: "lower", gateway: true},
	{name: "bench.commit_p99_raw_ms", unit: "ms", better: "lower"},
	{name: "bench.outage_commit_p50_ms", unit: "ms", better: "lower"},
	{name: "bench.stall_ms", unit: "ms", better: "lower"},
	{name: "bench.ref_write_p50_ms", unit: "ms", better: "lower"},
	{name: "bench.lost_submissions", unit: "count", better: "lower"},
	{name: "bench.submissions_per_op", unit: "count", better: "lower"},
	{name: "bench.duplicate_commits", unit: "count", better: "lower"},
	{name: "bench.durable_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "bench.durable_throughput_per_s", unit: "1/s", better: "higher"},
	{name: "bench.trace_overhead_share", unit: "share", better: "lower"},
	{name: "bench.budget_residual_share", unit: "share", better: "lower"},
}

// metricValue is one reported number. samples is how many observations a
// timing rests on (0 for counts and ratios).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is everything one workload run reports.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	WallS     float64                `json:"wall_s"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	Budget    []string               `json:"latency_budget,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: metric " + name + " is not declared in metrics.go")
}

func (r *result) setE2E(name string, v float64, samples int) {
	if r.EndToEnd == nil {
		r.EndToEnd = map[string]metricValue{}
	}
	r.EndToEnd[name] = metricValue{Value: v, Unit: unitOf(endToEndDefs, name), Samples: samples}
}

func (r *result) setLayer(name string, v float64, samples int) {
	r.PerLayer[name] = metricValue{Value: v, Unit: unitOf(perLayerDefs, name), Samples: samples}
}

// zeroLayers gives every per-layer metric the workload reports a value: a
// layer a workload never enters reports zero work, not a missing key.
func (r *result) zeroLayers() {
	r.PerLayer = map[string]metricValue{}
	for _, d := range perLayerDefs {
		if !d.gateway || r.Workload == ungatedWorkload {
			r.PerLayer[d.name] = metricValue{Unit: d.unit}
		}
	}
}

func (r *result) setProc(p procDelta, ops int) {
	r.setLayer("proc.cpu_user_s", p.cpu.user.Seconds(), 0)
	r.setLayer("proc.cpu_sys_s", p.cpu.sys.Seconds(), 0)
	r.setLayer("proc.gc_cpu_share", p.gcCPUShare, 0)
	if ops > 0 {
		r.setLayer("proc.allocs_per_op", float64(p.mallocs)/float64(ops), ops)
	}
	r.setLayer("proc.goroutines_max", float64(p.goroutinesMax), 0)
}

// setCommon sets the metrics every workload derives the same way.
func (r *result) setCommon(setups []time.Duration, cpu time.Duration, ops, attempted, failed int) {
	secs := make([]float64, len(setups))
	for i, s := range setups {
		secs[i] = s.Seconds()
	}
	r.setE2E("setup_s", median(secs), len(secs))
	if ops > 0 {
		r.setE2E("cpu_s_per_kop", cpu.Seconds()/float64(ops)*1e3, ops)
	}
	r.Attempted, r.Failed = attempted, failed
	r.setE2E("ok_share", float64(attempted-failed)/float64(attempted), attempted)
	r.setE2E("peak_rss_mb", peakRSSMB(), 0)
}

func sampleMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.dur)
	}
	sort.Float64s(out)
	return out
}

// stallGap is the shortest interval between consecutive slot commits that
// counts as a gap in service: two Δ, several times the slowest healthy slot.
const stallGap = 2 * clusterDelta * time.Millisecond

// gapsAfter returns the intervals of at least min between consecutive slot
// commits whose later end lies after from.
func gapsAfter(commits []slotCommit, from, min time.Duration) []time.Duration {
	var gaps []time.Duration
	for i := 1; i < len(commits); i++ {
		if g := commits[i].at - commits[i-1].at; commits[i].at >= from && g >= min {
			gaps = append(gaps, g)
		}
	}
	return gaps
}

// foldTCP derives the end-to-end metrics of a cluster workload from its
// rounds: one for an open loop, several for fixed work.
func foldTCP(res *result, rounds []*tcpRun, setups []time.Duration, measure time.Duration) {
	r := rounds[0]
	var committed, attempted, uncommitted int
	var cpu time.Duration
	var rates, medians []float64
	var samples []sample
	for _, round := range rounds {
		s, a, u := round.measuredSamples()
		samples = s
		committed, attempted, uncommitted = committed+len(s), attempted+a, uncommitted+u
		cpu += round.proc.cpu.total()
		setups = append(setups, round.setup)
		rates = append(rates, round.rate())
		medians = append(medians, percentile(sampleMS(s), 50))
	}
	switch {
	case r.spec.crash:
		// Which submissions a degraded cluster loses is chance (see
		// retrier), so an operation's latency through its retries follows
		// the luck of the run. The figure that repeats is the time without
		// service itself: the median gap between slot commits after the kill.
		gaps := durationsMS(gapsAfter(r.commits, r.killedAt, stallGap))
		res.setE2E("latency_p50_ms", percentile(gaps, 50), len(gaps))
		res.setE2E("throughput_per_s", float64(committed)/measure.Seconds(), committed)
	case r.in.due == nil:
		// Interference from the host only ever slows a round down, so the
		// better rounds are the ones that say most about the code: the
		// upper-quartile round's rate, the lower-quartile round's median.
		res.setE2E("latency_p50_ms", percentile(sortedCopy(medians), 25), committed)
		res.setE2E("throughput_per_s", percentile(sortedCopy(rates), 75), committed)
	default:
		// The median over 1-s windows of each window's median: a stall in
		// one window cannot set it.
		p50, windows := acrossWindows(samples, time.Second, 50, 100)
		res.setE2E("latency_p50_ms", p50, windows)
		res.setE2E("throughput_per_s", float64(committed)/measure.Seconds(), committed)
	}
	res.setCommon(setups, cpu, committed, attempted, uncommitted)
	if lag := durationsMS(r.lag); len(lag) > 0 && percentile(lag, 99) > 2 {
		res.Notes = append(res.Notes, fmt.Sprintf("generator lag p99 %.1f ms is above 2 ms: the open loop ran late (latency is still timed from the due time)", percentile(lag, 99)))
	}
}

// refCostMS is the median reference-write cost over the measured window.
func refCostMS(ref []sample) (float64, int) {
	var cost []float64
	for _, s := range ref {
		if s.at >= 0 {
			cost = append(cost, ms(s.dur))
		}
	}
	return median(cost), len(cost)
}

// diagTCP reports the untraced cluster run's noisier figures — whole-run
// percentiles and tails, and what the crash workload's client went through —
// as bench.* diagnostics beside the gated ones.
func diagTCP(res *result, r *tcpRun) {
	samples, _, _ := r.measuredSamples()
	all := sampleMS(samples)
	res.setLayer("bench.latency_p50_raw_ms", percentile(all, 50), len(all))
	res.setLayer("bench.commit_p99_raw_ms", percentile(all, 99), len(all))
	res.setLayer("bench.generator_lag_p99_ms", percentile(durationsMS(r.lag), 99), len(r.lag))
	// Transactions handed to the pool: r.sent first attempts, and every
	// retry (numbered after all the first attempts).
	lost := 0
	for seq, at := range r.led.commitOf {
		if at < 0 && (seq < r.sent || seq >= len(r.in.txs)) {
			lost++
		}
	}
	submitted := r.sent + r.retries
	res.setLayer("bench.lost_submissions", float64(lost), submitted)
	res.setLayer("bench.submissions_per_op", float64(submitted)/float64(r.sent), r.sent)
	res.setLayer("bench.duplicate_commits", float64(r.duplicates), 0)
	from := r.genAt + r.spec.warmup
	switch {
	case r.spec.crash:
		from = r.killedAt
		var outage []sample
		for _, s := range samples {
			if r.genAt+r.spec.warmup+s.at >= r.killedAt {
				outage = append(outage, s)
			}
		}
		lat := sampleMS(outage)
		res.setLayer("bench.outage_commit_p50_ms", percentile(lat, 50), len(lat))
		res.setLayer("bench.latency_tail_ms", percentile(lat, 95), len(lat))
	case r.in.due == nil:
		res.setLayer("bench.latency_tail_ms", percentile(all, 99), len(all))
	default:
		// The median over 1-s windows of each window's p99.
		p99, windows := acrossWindows(samples, time.Second, 99, minSamplesFor(99))
		res.setLayer("bench.latency_tail_ms", p99, windows)
	}
	if all := durationsMS(gapsAfter(r.commits, from, 0)); len(all) > 0 {
		res.setLayer("bench.stall_ms", all[len(all)-1], len(all))
	}
}

// durableTCP reports the round a traced invocation runs on the host's disk:
// its headline figure as measured, and what a reference write cost beside it.
func durableTCP(res *result, r *tcpRun) {
	samples, _, _ := r.measuredSamples()
	if r.in.due == nil {
		res.setLayer("bench.durable_throughput_per_s", r.rate(), len(samples))
	} else {
		res.setLayer("bench.durable_latency_p50_ms", percentile(sampleMS(samples), 50), len(samples))
	}
	cost, n := refCostMS(r.ref)
	res.setLayer("bench.ref_write_p50_ms", cost, n)
}

// foldGateway derives the end-to-end metrics of a gateway run, all of them
// as measured. The façade gives its replicas real WALs, so every time a
// client sees here is priced in fsyncs of the host's disk and follows that
// disk's moods; the driver does not gate this workload (README.md, "The
// disk").
func foldGateway(res *result, r *gwRun, setups []time.Duration) {
	reads := sampleMS(r.reads)
	res.setE2E("latency_p50_ms", percentile(reads, 50), len(reads))
	res.setE2E("throughput_per_s", float64(len(reads))/r.window.Seconds(), len(reads))
	ops := len(r.writes) + len(r.reads)
	failed := len(r.writeErr) + len(r.readErrs)
	res.setCommon(append(setups, r.setup), r.proc.cpu.total(), ops, ops+failed, failed)
}

// foldSim derives the end-to-end metrics of the simulator workload. As for
// fixed-work rounds, the better runs say most about the code.
func foldSim(res *result, r *simRun) {
	rates := make([]float64, len(r.durs))
	events := 0
	for i, d := range r.durs {
		rates[i] = float64(r.events[i]) / d.Seconds()
		events += r.events[i]
	}
	res.setE2E("latency_p50_ms", percentile(durationsMS(r.durs), 25), len(r.durs))
	res.setE2E("throughput_per_s", percentile(sortedCopy(rates), 75), len(rates))
	res.setCommon(r.setups, r.proc.cpu.total(), events, len(r.durs), 0)
}
