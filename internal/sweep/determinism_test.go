package sweep

import (
	"bytes"
	"runtime"
	"testing"

	"tetrabft/internal/scenario"
)

// determinismInputs are the sweeps the determinism tests run: a seeded-delay
// variant of smallSweep (every message delay drawn from the replicate's
// seed, so a run that drifted from its seed shows in the snapshot;
// smallSweep's constant unit delay depends on no seed and would hide it)
// and delta-sensitivity. internal/bench holds the same checks over the
// paper-* sweeps.
func determinismInputs() []Sweep {
	sw := smallSweep()
	sw.Base.Network.Delay = &scenario.DelaySpec{Model: scenario.DelayUniform, Min: 1, Max: 5}
	sw.Assert = []string{"min_decided >= 4"}
	delta, _ := ByName("delta-sensitivity")
	return []Sweep{sw, delta}
}

// marshalRun runs sw and returns its snapshot bytes.
func marshalRun(t *testing.T, sw Sweep) []byte {
	t.Helper()
	res, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunTwiceByteIdentical marshals two runs of the same sweep and
// requires byte equality — the snapshot-regression methodology depends on
// identical runs producing identical files.
func TestRunTwiceByteIdentical(t *testing.T) {
	for _, sw := range determinismInputs() {
		if a, b := marshalRun(t, sw), marshalRun(t, sw); !bytes.Equal(a, b) {
			t.Errorf("%s: two runs of the same sweep marshal differently:\n%s\nvs\n%s", sw.Name, a, b)
		}
	}
}

// TestGOMAXPROCSInvariant runs the same sweeps at 1 and N cores and
// requires byte-identical snapshots: the parallel fan-out folds in input
// order, so core count must never leak into the output.
func TestGOMAXPROCSInvariant(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, sw := range determinismInputs() {
		runtime.GOMAXPROCS(1)
		seq := marshalRun(t, sw)
		runtime.GOMAXPROCS(4)
		if parl := marshalRun(t, sw); !bytes.Equal(seq, parl) {
			t.Errorf("%s: GOMAXPROCS leaked into the sweep snapshot", sw.Name)
		}
	}
}

// TestCellMatchesStandaloneRun is the cross-API replication contract: every
// replicate row of a sweep must carry exactly the numbers a standalone
// scenario.Run of the cell's stored spec produces at that replicate's seed.
// Anyone can therefore take one cell out of a published sweep and reproduce
// its row verbatim.
func TestCellMatchesStandaloneRun(t *testing.T) {
	sw, ok := ByName("loss-until-gst")
	if !ok {
		t.Fatal("loss-until-gst sweep missing")
	}
	sw.Replicates = 3 // keep the standalone re-runs cheap
	res, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range res.Cells {
		for _, rep := range cell.Reps {
			sc := cell.Scenario
			sc.Seed = rep.Seed
			standalone, err := scenario.Run(sc)
			if err != nil {
				t.Fatalf("cell %s seed %d: standalone run failed: %v", cell.LabelString(), rep.Seed, err)
			}
			want := repOf(rep.Seed, standalone, nil)
			if rep != want {
				t.Errorf("cell %s seed %d: sweep row %+v != standalone %+v", cell.LabelString(), rep.Seed, rep, want)
			}
		}
	}
}
