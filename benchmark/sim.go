package main

import (
	"fmt"
	"runtime"
	"time"

	"tetrabft"
)

// The simulator workload goes through the façade (RunScenario): the sim
// engine's run loop and result fold are the code to be measured. One
// scenario run is fixed work — 16 nodes, 2,100 slots, 60,000 transactions
// arriving as a Poisson stream of 3,000 per 100 ticks (under half the
// 64-per-slot capacity, so the stream ends before the slot target and every
// transaction is decided). Runs repeat, each on the next seed, until the
// measured time is used up.
const (
	simNodes  = 16
	simSlots  = 2100
	simTxs    = 60000
	simRate   = 3000
	simBatch  = 64
	simWarmup = 100 // slots of the set-up run
)

func simScenario(seed int64, slots int64, txs int) tetrabft.Scenario {
	return tetrabft.Scenario{
		Name: "sim-pipeline", Protocol: tetrabft.ScenarioTetraBFTMulti, Nodes: simNodes, Seed: seed,
		Workload: tetrabft.WorkloadSpec{
			Slots: slots, TxCount: txs, BatchSize: simBatch,
			Arrival: &tetrabft.ArrivalSpec{Process: tetrabft.ArrivalPoisson, Rate: simRate},
		},
		Stop: tetrabft.StopSpec{AllDecided: true},
	}
}

// simOnce runs one scenario and passes its correctness gate: every node
// reached the slot target and every offered transaction was decided.
func simOnce(sc tetrabft.Scenario) (*tetrabft.ScenarioResult, time.Duration, error) {
	t0 := time.Now()
	res, err := tetrabft.RunScenario(sc)
	d := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("sim-pipeline: %w", err)
	}
	if len(res.Finalized) != simNodes {
		return nil, 0, fmt.Errorf("sim-pipeline: correctness: %d of %d nodes reported a finalized slot", len(res.Finalized), simNodes)
	}
	for _, f := range res.Finalized {
		if int64(f.Slot) < sc.Workload.Slots {
			return nil, 0, fmt.Errorf("sim-pipeline: correctness: node %d finalized slot %d, target %d", f.Node, f.Slot, sc.Workload.Slots)
		}
	}
	if res.DecidedTxs != res.OfferedTxs || res.OfferedTxs != sc.Workload.TxCount {
		return nil, 0, fmt.Errorf("sim-pipeline: correctness: decided %d of %d offered transactions", res.DecidedTxs, res.OfferedTxs)
	}
	return res, d, nil
}

// simRun is the raw outcome of the simulator workload.
type simRun struct {
	setups []time.Duration
	// Per scenario run: wall time and processed events.
	durs   []time.Duration
	events []int
	// Counts of the first run (seed exactly as given): they must repeat
	// across runs of one commit.
	first *tetrabft.ScenarioResult
	proc  procDelta
}

// runSim measures set-up — a short scenario of the same shape, which is what
// it takes to get a first result out of a fresh process — several times,
// then repeats the full scenario for the measured time.
func runSim(seed int64, measure time.Duration, setupReps int) (*simRun, error) {
	r := &simRun{}
	for i := 0; i < setupReps; i++ {
		_, d, err := simOnce(simScenario(seed, simWarmup, simWarmup*simRate/100/2))
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, d)
	}
	runtime.GC()
	pw := startProcWindow()
	start := time.Now()
	for i := int64(0); time.Since(start) < measure; i++ {
		// Each run starts from a collected heap, so that the process's peak
		// is one scenario's footprint and not what the collector happened
		// to leave of the runs before it (72–83 MiB against 62–64).
		runtime.GC()
		res, d, err := simOnce(simScenario(seed+i, simSlots, simTxs))
		if err != nil {
			return nil, err
		}
		if r.first == nil {
			r.first = res
		}
		r.durs = append(r.durs, d)
		r.events = append(r.events, res.Events)
	}
	r.proc = pw.stop()
	return r, nil
}
