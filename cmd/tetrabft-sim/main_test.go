package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the command itself: with
// TETRABFT_SIM_MAIN=1 set, it is tetrabft-sim.
func TestMain(m *testing.M) {
	if os.Getenv("TETRABFT_SIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sim runs the command with args and returns its combined output and exit
// code.
func sim(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TETRABFT_SIM_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatal(err)
	return "", 0
}

// TestSpecIsTheOnlyInput: a run needs -scenario, and the flags that used to
// assemble a spec are gone, so both usages fail as usage errors.
func TestSpecIsTheOnlyInput(t *testing.T) {
	out, code := sim(t)
	if code != 2 || !strings.Contains(out, "tetrabft-sim: -scenario is required") {
		t.Errorf("no arguments: exit %d, output %q; want exit 2 and the missing-spec error", code, out)
	}
	if out, code := sim(t, "-n", "4", "-silent", "1"); code != 2 || !strings.Contains(out, "flag provided but not defined: -n") {
		t.Errorf("-n 4 -silent 1: exit %d, output %q; want exit 2 and an undefined-flag error", code, out)
	}
}

// TestRunsGoodCaseSpec drives the paper's 4-node good case from its spec
// file: every node decides the leader's value in five message delays.
func TestRunsGoodCaseSpec(t *testing.T) {
	out, code := sim(t, "-scenario", "../../examples/scenarios/good-case.json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	for id := range 4 {
		want := fmt.Sprintf(`node %d decided "val-0" at t=5 (message delays)`, id)
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
