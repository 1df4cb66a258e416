package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloadDef names one workload and why it exists; BENCHMARK.json carries
// the same list, less ungatedWorkload.
type workloadDef struct {
	name string
	why  string
}

// ungatedWorkload runs with the others from the command line, but the driver
// does not run or gate it: the façade gives its replicas real WALs, so every
// figure of it follows the moods of the host's disk (README.md, "The disk").
const ungatedWorkload = "gateway-mixed"

var workloadDefs = []workloadDef{
	{"tcp-steady", "open loop at a tenth of capacity on a 1 ms model disk: persists and message hops set latency, the mempool backlog stays small, so mempool and codec changes must show nothing"},
	{"tcp-saturate", "200k-transaction backlog drained at batch 128 by replicas without a WAL: CPU-bound, where mempool drain, batch encoding, GC and bytes on the wire do the work"},
	{"tcp-crash-restart", "a replica is killed and relaunched from its WAL under open-loop load: the only workload running view-change timers, held frames, WAL load and catch-up"},
	{"gateway-mixed", "two HTTP clients write and read through the sharded gateway: reads replay the chain on the event loop that commits the writes, so a gain for one side that costs the other shows"},
	{"sim-pipeline", "n=16 multishot pipeline on the simulator: no sockets, disk or goroutines, so WAL and transport changes must show nothing and deliver-path changes show most"},
}

// runOpts are the knobs a run takes from the command line.
type runOpts struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	traceOut string
	// setupReps is how many extra set-ups are timed besides the measured
	// run's own (0 in smoke runs; the gateway's, which cost half a second
	// each, are repeated a third as often).
	setupReps int
}

// runWorkload runs one workload in this process: untraced for the
// end-to-end metrics, and in a traced invocation once more with the timing
// wrappers in, plus the isolated probes, for the per-layer metrics. It
// checks that the workload left nothing behind.
func runWorkload(o runOpts) (*result, error) {
	baseline := runtime.NumGoroutine()
	start := time.Now()
	res := &result{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.traced}
	measure := time.Duration(o.seconds) * time.Second

	var probes map[string]float64
	if o.traced {
		res.zeroLayers()
		var err error
		if probes, err = runProbes(o.seed); err != nil {
			return nil, err
		}
		for name, v := range probes {
			res.setLayer(name, v, 0)
		}
		if err := settle(baseline); err != nil {
			return nil, fmt.Errorf("isolated probes: %w", err)
		}
	}

	var err error
	switch o.workload {
	case "tcp-steady", "tcp-saturate", "tcp-crash-restart":
		err = runTCP(res, o, measure, baseline)
	case "gateway-mixed":
		err = runGatewayWorkload(res, o, measure, probes)
	case "sim-pipeline":
		err = runSimWorkload(res, o, measure)
	default:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return nil, err
	}
	if err := settle(baseline); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(os.TempDir(), "tetrabench-wal*")); len(leftovers) > 0 {
		return nil, fmt.Errorf("%s: left WAL directories behind: %v", o.workload, leftovers)
	}
	res.Correct = true
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// holdForDisk is how a run on the host's disk begins (see awaitDisk).
func holdForDisk(res *result) error {
	waited, err := awaitDisk()
	if waited > time.Second {
		res.Notes = append(res.Notes, fmt.Sprintf("waited %.0f s for the disk to leave a slow spell before starting", waited.Seconds()))
	}
	return err
}

func runTCP(res *result, o runOpts, measure time.Duration, baseline int) error {
	spec := tcpSpecs[o.workload]
	in := makeTCPInputs(spec, o.seed, measure)
	setups, err := measureSetups(o.setupReps, func() (time.Duration, error) {
		c, d, _, err := startCluster(spec, in, nil, nil)
		if err != nil {
			return d, err
		}
		c.close()
		c.cleanup()
		return d, nil
	})
	if err != nil {
		return err
	}
	started := time.Now()
	r, err := runTCPWorkload(spec, in, measure, nil)
	if err != nil {
		return err
	}
	rounds := []*tcpRun{r}
	// Fixed work repeats, each round on a fresh cluster and the next seed,
	// until the measured time is used up; a round begun is finished.
	for in.due == nil && time.Since(started) < measure {
		if err := settle(baseline); err != nil {
			return fmt.Errorf("%s: %w", o.workload, err)
		}
		next, err := runTCPWorkload(spec, makeTCPInputs(spec, o.seed+int64(len(rounds)), measure), measure, nil)
		if err != nil {
			return err
		}
		rounds = append(rounds, next)
	}
	foldTCP(res, rounds, setups, measure)
	if !o.traced {
		return nil
	}
	// The traced repeat: same inputs, wrappers in.
	if err := settle(baseline); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	diagTCP(res, r)
	tr := newTracer()
	traced, err := runTCPWorkload(spec, in, measure, tr)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	layersTCP(res, traced, res, tr, measure)
	slotSpans(tr, traced)
	if err := writeTrace(res, tr, o); err != nil {
		return err
	}
	if spec.crash {
		return nil
	}
	// What the gated figures leave out: the same work once more with the
	// WALs on the host's disk, as measured.
	if err := settle(baseline); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if err := holdForDisk(res); err != nil {
		return err
	}
	spec.disk = diskReal
	durable, err := runTCPWorkload(spec, in, measure, nil)
	if err != nil {
		return fmt.Errorf("round on the host's disk: %w", err)
	}
	durableTCP(res, durable)
	return nil
}

func writeTrace(res *result, tr *tracer, o runOpts) error {
	written, total, err := tr.writeChromeTrace(o.traceOut)
	if err != nil {
		return err
	}
	res.TraceFile = o.traceOut
	if written < total {
		res.Notes = append(res.Notes, fmt.Sprintf("trace file holds the first %d of %d spans", written, total))
	}
	return nil
}

func runGatewayWorkload(res *result, o runOpts, measure time.Duration, probes map[string]float64) error {
	if err := holdForDisk(res); err != nil {
		return err
	}
	setups, err := measureSetups(o.setupReps/3, func() (time.Duration, error) { return gatewaySetup(o.seed) })
	if err != nil {
		return err
	}
	r, err := runGateway(o.seed, measure)
	if err != nil {
		return err
	}
	foldGateway(res, r, setups)
	if !o.traced {
		return nil
	}
	// Nothing can be wrapped behind the façade, so the traced run is the
	// same run: its spans are the client-side request timings.
	layersGateway(res, r, probes)
	tr := newTracer()
	w, rd := tr.newTrack("client-W"), tr.newTrack("client-R")
	for i, s := range r.writes {
		w.add("scenario.write_visible", "scenario", s.at, s.at+s.dur, int64(i))
	}
	for i, s := range r.reads {
		rd.add("scenario.query", "scenario", s.at, s.at+s.dur, int64(i))
	}
	return writeTrace(res, tr, o)
}

func runSimWorkload(res *result, o runOpts, measure time.Duration) error {
	reps := o.setupReps
	if reps == 0 {
		reps = 1
	}
	r, err := runSim(o.seed, measure, reps)
	if err != nil {
		return err
	}
	foldSim(res, r)
	if !o.traced {
		return nil
	}
	// The simulator has no layer boundary the benchmark can reach from
	// outside the façade: its spans are the scenario runs themselves.
	layersSim(res, r)
	tr := newTracer()
	t := tr.newTrack("scenario-runs")
	var at time.Duration
	for i, d := range r.durs {
		t.add("sim.run_scenario", "sim", at, at+d, o.seed+int64(i))
		at += d
	}
	return writeTrace(res, tr, o)
}
