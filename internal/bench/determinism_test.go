package bench

import (
	"bytes"
	"runtime"
	"testing"

	"tetrabft/internal/sweep"
)

// experiments names each paper-* sweep after the experiment it reproduces;
// the names are the subtests of TestSweepsDeterministic.
var experiments = map[string]string{
	"paper-e1":       "Table1",
	"paper-e2":       "CommunicationSweep",
	"paper-e3":       "StorageSweep",
	"paper-e4":       "Responsiveness",
	"paper-e5":       "Fig2Pipeline",
	"paper-e6":       "Fig3ViewChange",
	"paper-e8":       "TimeoutAnalysis",
	"paper-ablation": "TimeoutBound",
	"paper-e10":      "ThroughputBatchScaling",
	"paper-e11":      "StageDecomposition",
}

// marshalRun runs sw and returns its snapshot bytes.
func marshalRun(t *testing.T, sw sweep.Sweep) []byte {
	t.Helper()
	res, err := sweep.Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSweepsDeterministic runs every paper sweep twice and requires
// byte-identical snapshots: fanning the independent runs over the worker
// pool must not perturb cell order or any measured number.
func TestSweepsDeterministic(t *testing.T) {
	sweeps := Sweeps()
	if len(sweeps) != len(experiments) {
		t.Fatalf("%d paper sweeps, %d experiment names", len(sweeps), len(experiments))
	}
	for _, sw := range sweeps {
		name, ok := experiments[sw.Name]
		if !ok {
			t.Fatalf("%s: no experiment name", sw.Name)
		}
		t.Run(name, func(t *testing.T) {
			if a, b := marshalRun(t, sw), marshalRun(t, sw); !bytes.Equal(a, b) {
				t.Errorf("%s: two runs marshal differently:\n%s\nvs\n%s", sw.Name, a, b)
			}
		})
	}
}

// TestSweepsSequentialParallelEquivalent runs every paper sweep at 1 and 4
// cores and requires byte-identical snapshots: the parallel fan-out folds
// in input order, so core count must never leak into the output.
func TestSweepsSequentialParallelEquivalent(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, sw := range Sweeps() {
		runtime.GOMAXPROCS(1)
		seq := marshalRun(t, sw)
		runtime.GOMAXPROCS(4)
		if parl := marshalRun(t, sw); !bytes.Equal(seq, parl) {
			t.Errorf("%s: GOMAXPROCS leaked into the sweep snapshot", sw.Name)
		}
	}
}
