// Command tetrabft-sim runs one TetraBFT scenario on the deterministic
// discrete-event simulator (or, when the spec says so, on real TCP) and
// prints what happened: decision times (in message delays), per-node
// traffic, and optionally the full protocol trace.
//
// The run is a declarative JSON spec, -scenario file.json, and nothing
// else: the full cluster × faults × network × workload matrix. See
// EXPERIMENTS.md for the spec reference and examples/scenarios/ for
// ready-made specs; examples/scenarios/good-case.json is the paper's
// 4-node good case.
//
// The other flags report on the run the spec declares: -v adds the stage
// latency breakdown and the metrics snapshot, -trace-out exports the
// protocol trace as Chrome trace-event JSON (load it in Perfetto or
// chrome://tracing), and -cpuprofile/-memprofile capture pprof profiles
// of the run itself.
package main

import (
	"flag"
	"fmt"
	"os"

	"tetrabft/internal/obs"
	"tetrabft/internal/scenario"
	"tetrabft/internal/trace"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "the JSON scenario spec to run (required)")
		verbose      = flag.Bool("v", false, "print the stage latency breakdown and the metrics snapshot")
		traceOut     = flag.String("trace-out", "", "write the protocol trace as Chrome trace-event JSON to this file (Perfetto-loadable)")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	flag.Parse()
	if *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "tetrabft-sim: -scenario is required")
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*scenarioPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrabft-sim:", err)
		os.Exit(1)
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrabft-sim:", err)
		os.Exit(1)
	}
	// printTrace is the pre-observability contract: the raw trace goes to
	// stdout only when the spec asked for it, not when -trace-out quietly
	// turns collection on for the export.
	printTrace := sc.Collect.Trace
	if *verbose {
		sc.Collect.Stages = true
		sc.Collect.Metrics = true
	}
	if *traceOut != "" {
		sc.Collect.Trace = true
	}

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrabft-sim:", err)
		os.Exit(1)
	}
	runErr := run(sc, printTrace, *verbose, *traceOut)
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "tetrabft-sim:", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "tetrabft-sim:", runErr)
		os.Exit(1)
	}
}

func run(sc scenario.Scenario, printTrace, verbose bool, traceOut string) error {
	res, err := scenario.Run(sc)
	if err != nil {
		// A failed run still returns what it collected; the trace leading
		// up to an agreement violation is exactly what one wants to see.
		if res != nil {
			for _, ev := range res.Trace {
				fmt.Println(ev.String())
			}
			if traceOut != "" {
				exportTrace(traceOut, res.Trace)
			}
		}
		return err
	}
	if printTrace {
		for _, ev := range res.Trace {
			fmt.Println(ev.String())
		}
	}
	if traceOut != "" {
		if err := exportTrace(traceOut, res.Trace); err != nil {
			return err
		}
	}

	if sc.Engine == scenario.EngineTCP {
		fmt.Printf("run finished after %dms wall clock\n", res.FinishedAt)
	} else {
		fmt.Printf("simulation finished at t=%d (%d events)\n", res.FinishedAt, res.Events)
	}
	if len(res.Shards) > 0 { // sharded service layer
		for _, s := range res.Shards {
			fmt.Printf("shard %d: finalized %d slots, %d txs decided (commit latency p50 %d, p99 %d), %d anchor epochs through slot %d\n",
				s.Shard, s.Finalized, s.DecidedTxs, s.TxLatencyP50, s.TxLatencyP99, s.AnchorEpochs, s.AnchoredSlots)
		}
		fmt.Printf("anchor cluster: %d epochs committed (anchor latency p50 %d, p99 %d)\n",
			res.AnchorEpochs, res.AnchorLatencyP50, res.AnchorLatencyP99)
		if res.DecidedTxs > 0 {
			fmt.Printf("decided transactions: %d aggregate (commit latency p50 %d, p99 %d)\n",
				res.DecidedTxs, res.TxLatencyP50, res.TxLatencyP99)
		}
	} else if len(res.Finalized) > 0 { // multi-shot
		for _, f := range res.Finalized {
			fmt.Printf("node %d finalized %d slots\n", f.Node, f.Slot)
		}
		for _, b := range res.Chain {
			if b.NumTxs() > 0 {
				fmt.Printf("  slot %2d  block %s  (%d txs, %d-byte payload)\n", b.Slot, b.ID(), b.NumTxs(), len(b.Payload))
			} else {
				fmt.Printf("  slot %2d  block %s  (%d-byte payload)\n", b.Slot, b.ID(), len(b.Payload))
			}
		}
		if res.DecidedTxs > 0 {
			fmt.Printf("decided transactions: %d (commit latency p50 %d, p99 %d ticks)\n",
				res.DecidedTxs, res.TxLatencyP50, res.TxLatencyP99)
		}
	} else {
		for _, tr := range res.Traffic {
			if d, ok := res.Decision(tr.Node, 0); ok {
				fmt.Printf("node %d decided %q at t=%d (message delays)\n", tr.Node, d.Value, d.At)
			} else {
				fmt.Printf("node %d did not decide\n", tr.Node)
			}
		}
	}
	for _, tr := range res.Transport {
		fmt.Printf("replica %d links: %d reconnects, %d frames dropped, %d chaos-dropped, %d chaos-duplicated\n",
			tr.Node, tr.Reconnects, tr.DroppedFrames, tr.ChaosDropped, tr.ChaosDuplicated)
	}
	if res.MaxStorageBytes > 0 {
		fmt.Printf("storage: %d bytes max persistent state\n", res.MaxStorageBytes)
	}
	fmt.Printf("traffic: %d total bytes sent, %d messages dropped\n", res.TotalSentBytes, res.Dropped)
	if verbose {
		printObservability(sc, res)
	}
	return nil
}

// printObservability renders the -v extras: the stage latency breakdown
// (per shard first when the run is sharded, then pooled) and the metrics
// snapshot.
func printObservability(sc scenario.Scenario, res *scenario.Result) {
	unit := "ticks"
	if sc.Engine == scenario.EngineTCP {
		unit = "ms"
	}
	for _, sr := range res.Shards {
		if len(sr.Stages) == 0 {
			continue
		}
		fmt.Printf("stage latency, shard %d (%s):\n", sr.Shard, unit)
		for _, d := range sr.Stages {
			fmt.Printf("  %-24s count %5d  p50 %6d  p99 %6d\n", d.Stage, d.Count, d.P50, d.P99)
		}
	}
	if len(res.Stages) > 0 {
		fmt.Printf("stage latency breakdown (%s):\n", unit)
		for _, d := range res.Stages {
			fmt.Printf("  %-24s count %5d  p50 %6d  p99 %6d\n", d.Stage, d.Count, d.P50, d.P99)
		}
	}
	if len(res.Metrics) > 0 {
		fmt.Println("metrics:")
		for _, s := range res.Metrics {
			fmt.Printf("  %-36s %d\n", s.Name, s.Value)
		}
	}
}

// exportTrace writes the collected protocol trace as Chrome trace-event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func exportTrace(path string, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: wrote %d events to %s (load in Perfetto or chrome://tracing)\n", len(events), path)
	return nil
}
