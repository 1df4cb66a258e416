package main

import (
	"fmt"
	"time"

	"tetrabft/internal/types"
)

// layersTCP derives the per-layer metrics of a traced cluster run from its
// spans, the counters the program exposes, and the untraced run it is
// compared with.
func layersTCP(res *result, r *tcpRun, untraced *result, tr *tracer, measure time.Duration) {
	f := tr.fold()
	height := float64(r.led.height)
	samples, _, _ := r.measuredSamples()
	committedAll := r.led.committed

	// multishot: the Machine wrapper's spans. Self time excludes the
	// persists, drains and sends made inside a handler.
	delivers := durationsUS(f.byName["multishot.deliver"])
	res.setLayer("multishot.deliver_count", float64(len(delivers)), 0)
	res.setLayer("multishot.deliver_busy_s", f.layerSelf["multishot"].Seconds(), len(delivers))
	res.setLayer("multishot.deliver_p50_us", percentile(delivers, 50), len(delivers))
	res.setLayer("multishot.deliver_p99_us", percentile(delivers, 99), len(delivers))
	res.setLayer("multishot.msgs_per_slot", float64(len(delivers))/height, 0)
	res.setLayer("multishot.tick_count", float64(len(f.byName["multishot.tick"])), 0)
	res.setLayer("multishot.view_changes", float64(r.counters["multishot_view_changes_total"]), 0)
	if r.spec.crash && r.closedAt > r.restartedAt {
		res.setLayer("multishot.catchup_slots_per_s", float64(r.readopted)/(r.closedAt-r.restartedAt).Seconds(), r.readopted)
	}

	// blockchain: the Batch wrapper. queue_wait is due → drained into a
	// proposal; propose_to_commit (a multishot figure) is drained → first
	// decide of the slot that carried the batch.
	drains := durationsUS(f.byName["blockchain.drain"])
	res.setLayer("blockchain.drain_count", float64(len(drains)), 0)
	res.setLayer("blockchain.drain_busy_s", f.layerSelf["blockchain"].Seconds(), len(drains))
	res.setLayer("blockchain.drain_p99_us", percentile(drains, 99), len(drains))
	res.setLayer("blockchain.backlog_max", float64(r.probe.backlogMax), 0)
	var queueWait, proposeToCommit []time.Duration
	drainedTxs := 0
	for _, d := range r.drains {
		drainedTxs += len(d.seqs)
		carried := false
		for _, seq := range d.seqs {
			if r.led.slotOf[seq] != d.slot {
				continue // the block was aborted; another slot or none carried it
			}
			carried = true
			due := r.genAt
			if r.txDue != nil {
				if d := r.txDue[seq]; d < r.spec.warmup || (int(seq) < len(r.in.txs) && d >= r.spec.warmup+r.measure) {
					continue
				}
				due += r.txDue[seq]
			}
			queueWait = append(queueWait, d.at-due)
		}
		if carried {
			proposeToCommit = append(proposeToCommit, r.led.commitOf[d.seqs[0]]-d.at)
		}
	}
	if len(r.drains) > 0 {
		res.setLayer("blockchain.txs_per_batch", float64(drainedTxs)/float64(len(r.drains)), len(r.drains))
	}
	qw, p2c := durationsMS(queueWait), durationsMS(proposeToCommit)
	res.setLayer("blockchain.queue_wait_p50_ms", percentile(qw, 50), len(qw))
	res.setLayer("multishot.propose_to_commit_p50_ms", percentile(p2c, 50), len(p2c))

	// wal: the Persister wrapper.
	persists := durationsUS(f.byName["wal.persist"])
	res.setLayer("wal.persist_count", float64(len(persists)), 0)
	res.setLayer("wal.persist_busy_s", f.layerSelf["wal"].Seconds(), len(persists))
	res.setLayer("wal.persist_p50_us", percentile(persists, 50), len(persists))
	res.setLayer("wal.persist_p99_us", percentile(persists, 99), len(persists))
	res.setLayer("wal.persists_per_slot", float64(len(persists))/(height*clusterNodes), 0)
	res.setLayer("wal.persist_errors", float64(r.persistErrs), 0)

	// transport: the Env wrapper (encode + hand-off to the writers), the
	// event-loop probe, and the runtime's own counters.
	res.setLayer("transport.send_busy_s", f.layerSelf["transport"].Seconds(), len(f.byName["transport.send"])+len(f.byName["transport.broadcast"]))
	waits := durationsUS(r.probe.waits)
	res.setLayer("transport.eventloop_wait_p50_us", percentile(waits, 50), len(waits))
	res.setLayer("transport.eventloop_wait_p99_us", percentile(waits, 99), len(waits))
	handlers := f.sum("multishot.deliver") + f.sum("multishot.tick") + f.sum("multishot.start")
	if span := r.closedAt - r.runAt; span > 0 {
		res.setLayer("transport.eventloop_busy_share", handlers.Seconds()/(span.Seconds()*clusterNodes), 0)
	}
	res.setLayer("transport.frames_per_slot", float64(r.counters["transport_frames_sent_total"])/height, 0)
	if committedAll > 0 {
		res.setLayer("transport.bytes_per_tx", float64(r.counters["transport_bytes_sent_total"])/float64(committedAll), committedAll)
	}
	res.setLayer("transport.dropped_frames", float64(r.links.dropped), 0)
	res.setLayer("transport.reconnects", float64(r.links.reconnects), 0)

	res.setProc(r.proc, len(samples))

	// Tracing overhead: how much worse the traced run's headline figure is
	// than the untraced run's — throughput for fixed work, median latency
	// otherwise.
	traced := &result{}
	foldTCP(traced, []*tcpRun{r}, nil, measure)
	overhead := 0.0
	if r.in.due == nil {
		u, t := untraced.EndToEnd["throughput_per_s"].Value, traced.EndToEnd["throughput_per_s"].Value
		overhead = (u - t) / u
	} else {
		u, t := untraced.EndToEnd["latency_p50_ms"].Value, traced.EndToEnd["latency_p50_ms"].Value
		overhead = (t - u) / u
	}
	res.setLayer("bench.trace_overhead_share", overhead, 0)

	// The latency budget: what the layers' per-call costs add up to per
	// committed slot on one replica, against the measured slot interval; and
	// what the two per-transaction spans add up to against the median commit
	// latency of this (traced) run.
	window := (r.closedAt - r.runAt).Seconds()
	slotMS := window * 1e3 / height
	perSlot := func(n int) float64 { return float64(n) / (height * clusterNodes) }
	rows := []struct {
		layer, call string
		p50us       float64
		calls       float64
	}{
		{"wal", "persist", percentile(persists, 50), perSlot(len(persists))},
		{"multishot", "deliver (self)", us(f.layerSelf["multishot"]) / float64(max(len(delivers), 1)), perSlot(len(delivers))},
		{"transport", "send/broadcast", us(f.layerSelf["transport"]) / float64(max(res.PerLayer["transport.send_busy_s"].Samples, 1)), perSlot(res.PerLayer["transport.send_busy_s"].Samples)},
		{"blockchain", "drain", us(f.layerSelf["blockchain"]) / float64(max(len(drains), 1)), perSlot(len(drains))},
	}
	res.Budget = append(res.Budget, fmt.Sprintf("%-11s %-16s %10s %11s %9s", "layer", "call", "cost us", "calls/slot", "ms/slot"))
	explained := 0.0
	for _, row := range rows {
		msPerSlot := row.p50us * row.calls / 1e3
		explained += msPerSlot
		res.Budget = append(res.Budget, fmt.Sprintf("%-11s %-16s %10.1f %11.2f %9.3f", row.layer, row.call, row.p50us, row.calls, msPerSlot))
	}
	res.Budget = append(res.Budget,
		fmt.Sprintf("%-51s %9.3f", "explained per slot, per replica", explained),
		fmt.Sprintf("%-51s %9.3f", "measured slot interval", slotMS),
		fmt.Sprintf("%-51s %9.3f", "residual (message hops, scheduling, quorum wait)", slotMS-explained))
	commitP50 := percentile(sampleMS(samples), 50)
	qwP50, p2cP50 := percentile(qw, 50), percentile(p2c, 50)
	residual := commitP50 - qwP50 - p2cP50
	res.Budget = append(res.Budget,
		fmt.Sprintf("commit path: queue_wait p50 %.3f ms + propose_to_commit p50 %.3f ms (%.1f slot intervals) against the traced run's whole-run median commit latency %.3f ms; residual %.3f ms",
			qwP50, p2cP50, p2cP50/slotMS, commitP50, residual))
	if commitP50 > 0 {
		res.setLayer("bench.budget_residual_share", residual/commitP50, 0)
	}
}

// layersGateway derives the gateway run's client-side per-layer metrics.
func layersGateway(res *result, r *gwRun, probes map[string]float64) {
	reads, writes := sampleMS(r.reads), sampleMS(r.writes)
	res.setLayer("scenario.read_p50_ms", percentile(reads, 50), len(reads))
	res.setLayer("bench.latency_p50_raw_ms", percentile(reads, 50), len(reads))
	res.setLayer("bench.write_visible_p50_ms", percentile(writes, 50), len(writes))
	res.setLayer("bench.write_visible_p90_ms", percentile(writes, 90), len(writes))
	if r.slotsPerShard > 0 {
		res.setLayer("bench.write_visible_slots", percentile(writes, 50)*r.slotsPerShard/(r.window.Seconds()*1e3), len(writes))
	}
	res.setLayer("scenario.submit_ack_p50_ms", percentile(durationsMS(r.acks), 50), len(r.acks))
	// Reads are in completion order: the first and last quarter bracket how
	// much a read slowed while the chains grew.
	q := len(r.reads) / 4
	if q > 0 {
		early, late := sampleMS(r.reads[:q]), sampleMS(r.reads[len(r.reads)-q:])
		res.setLayer("scenario.query_early_p50_ms", percentile(early, 50), q)
		res.setLayer("scenario.query_late_p50_ms", percentile(late, 50), q)
		if e := percentile(early, 50); e > 0 {
			res.setLayer("scenario.query_growth_ratio", percentile(late, 50)/e, q)
		}
	}
	res.setLayer("scenario.backend_query_self_ms", percentile(reads, 50)-probes["shard.gateway_http_us"]/1e3, len(reads))
	res.setLayer("shard.gateway_rejected", float64(r.rejected), 0)
	if r.polls > 0 {
		res.setLayer("shard.polls_per_write", float64(len(r.writes))/float64(r.polls), r.polls)
	}
	res.setLayer("shard.slots_per_s", r.slotsPerShard/r.window.Seconds(), 0)
	res.setLayer("shard.anchor_epochs", float64(r.anchorEpochs), 0)
	res.setProc(r.proc, len(r.writes)+len(r.reads))
	cost, n := refCostMS(r.ref)
	res.setLayer("bench.ref_write_p50_ms", cost, n)
}

// layersSim derives the simulator's per-layer metrics: the exact counts of
// the first run and the heap traffic per event.
func layersSim(res *result, r *simRun) {
	events := 0
	for _, e := range r.events {
		events += e
	}
	res.setLayer("sim.events", float64(r.first.Events), 0)
	res.setLayer("sim.sent_bytes", float64(r.first.TotalSentBytes), 0)
	res.setLayer("sim.decided_txs", float64(r.first.DecidedTxs), 0)
	res.setLayer("sim.allocs_per_event", float64(r.proc.mallocs)/float64(events), events)
	res.setLayer("sim.alloc_bytes_per_event", float64(r.proc.allocBytes)/float64(events), events)
	res.setProc(r.proc, events)
}

// slotSpans adds the per-transaction chain to the trace file: for every
// slot that carried a batch, drained → first decide → all-replica decide,
// and for a sample of transactions due → drained. They go on a track of
// their own, after the fold, so they never count as layer self time.
func slotSpans(tr *tracer, r *tcpRun) {
	t := tr.newTrack("tx-chain")
	for _, d := range r.drains {
		if len(d.seqs) == 0 || r.led.slotOf[d.seqs[0]] != d.slot {
			continue
		}
		first := r.led.commitOf[d.seqs[0]]
		t.add("slot.propose_to_commit", "chain", d.at, first, int64(d.slot))
		if all, ok := r.allDecideAt[types.Slot(d.slot)]; ok {
			t.add("slot.first_to_all_decide", "chain", first, all, int64(d.slot))
		}
		// One transaction per batch keeps the file readable.
		seq := d.seqs[0]
		due := r.genAt
		if r.txDue != nil {
			due += r.txDue[seq]
		}
		t.add("tx.queue_wait", "chain", due, d.at, int64(seq))
	}
}
