package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tetrabft/internal/scenario"
	"tetrabft/internal/sweep"
)

// small returns options for a tiny inline sweep spec written to dir.
func smallSpec(t *testing.T, dir string) string {
	t.Helper()
	spec := `{
  "name": "cli-small",
  "base": {"protocol": "tetrabft", "nodes": 4, "stop": {"horizon": 4000, "all_decided": true}},
  "axes": [{"field": "delta", "ints": [10, 20]}],
  "assert": ["max_latency <= 5"]
}`
	path := filepath.Join(dir, "small.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunSpecPassVerdict runs a spec file end to end: exit 0, markdown
// report, snapshot written.
func TestRunSpecPassVerdict(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap.json")
	var out strings.Builder
	code, err := run(options{runPath: smallSpec(t, dir), format: "md", jsonPath: snap}, &out)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v\n%s", code, err, out.String())
	}
	for _, want := range []string{"## sweep: cli-small", "verdict: PASS"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sweep.ParseResult(data); err != nil || res.Schema != sweep.Schema {
		t.Errorf("snapshot does not parse as %s: %v", sweep.Schema, err)
	}
}

// TestFailedAssertExitsNonZero pins the verdict exit code: a violated SLO
// is exit 1 without an error (the report is the diagnosis).
func TestFailedAssertExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "fail.json")
	if err := os.WriteFile(spec, []byte(`{
  "base": {"protocol": "tetrabft", "nodes": 4, "stop": {"horizon": 4000}},
  "assert": ["max_latency <= 4"]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := run(options{runPath: spec, format: "md"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("code = %d, want 1 for a failing verdict", code)
	}
	if !strings.Contains(out.String(), "verdict: FAIL") {
		t.Errorf("report lacks the FAIL verdict:\n%s", out.String())
	}
}

// TestBadSpecRejected: a malformed spec is an error, exit 1.
func TestBadSpecRejected(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(spec, []byte(`{"base": {"nodes": 4}, "axis": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code, err := run(options{runPath: spec, format: "md"}, &out); err == nil || code != 1 {
		t.Errorf("bad spec: code=%d err=%v", code, err)
	}
}

// TestModeExclusivity: zero or two modes are usage errors.
func TestModeExclusivity(t *testing.T) {
	var out strings.Builder
	if _, err := run(options{format: "md"}, &out); err == nil {
		t.Error("no mode accepted")
	}
	if _, err := run(options{runPath: "n-scaling", fuzzRuns: 5, format: "md"}, &out); err == nil {
		t.Error("two modes accepted")
	}
	if _, err := run(options{runPath: "no-such-sweep", format: "md"}, &out); err == nil {
		t.Error("unknown named sweep accepted")
	}
	if _, err := run(options{runPath: "n-scaling", format: "yaml"}, &out); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestCompareExitCodes pins the snapshot-regression contract: identical
// snapshots exit 0; a perturbed measurement exits 1 and is named.
func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec(t, dir)
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for _, snap := range []string{a, b} {
		var out strings.Builder
		if code, err := run(options{runPath: spec, format: "json", jsonPath: snap}, &out); err != nil || code != 0 {
			t.Fatalf("run: code=%d err=%v", code, err)
		}
	}
	var out strings.Builder
	code, err := run(options{compare: true, args: []string{a, b}, format: "md"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("identical snapshots: code=%d err=%v\n%s", code, err, out.String())
	}

	// Perturb one measured number in b.
	data, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.ParseResult(data)
	if err != nil {
		t.Fatal(err)
	}
	res.Cells[0].Reps[0].Traffic++
	perturbed, err := res.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, perturbed, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code, err = run(options{compare: true, args: []string{a, b}, format: "md"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("perturbed snapshots: code = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "cell 0") {
		t.Errorf("diff does not name the perturbed cell:\n%s", out.String())
	}
}

// TestFuzzCleanAndTeeth pins the fuzzing exit codes: a clean campaign exits
// 0; against the broken skip-rule-3 variant it exits 1 and writes a minimal
// reproducer that parses and reproduces the violation.
func TestFuzzCleanAndTeeth(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	code, err := run(options{fuzzRuns: 10, fuzzSeed: 1, format: "md", outDir: dir}, &out)
	if err != nil || code != 0 {
		t.Fatalf("clean campaign: code=%d err=%v\n%s", code, err, out.String())
	}

	out.Reset()
	code, err = run(options{
		fuzzRuns: 25, fuzzSeed: 1, format: "md", outDir: dir,
		protocols: "tetrabft", mutations: "skip-rule-3",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("teeth campaign: code = %d, want 1\n%s", code, out.String())
	}
	repro := filepath.Join(dir, "fuzz-fail-0.json")
	data, err := os.ReadFile(repro)
	if err != nil {
		t.Fatalf("no reproducer written: %v", err)
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		t.Fatalf("reproducer does not parse: %v\n%s", err, data)
	}
	if sc.Mutation != scenario.MutationSkipRule3 {
		t.Errorf("reproducer lost the mutation: %+v", sc)
	}

	// A later clean campaign in the same directory must clear the stale
	// reproducers — leftover files would read as current findings.
	out.Reset()
	code, err = run(options{fuzzRuns: 10, fuzzSeed: 1, format: "md", outDir: dir}, &out)
	if err != nil || code != 0 {
		t.Fatalf("clean re-run: code=%d err=%v", code, err)
	}
	if _, err := os.Stat(repro); !os.IsNotExist(err) {
		t.Errorf("stale reproducer %s survived a clean campaign", repro)
	}
}

// smallCapacity writes a fast capacity plan to dir and returns its path.
func smallCapacity(t *testing.T, dir string) string {
	t.Helper()
	spec := `{
  "name": "cli-capacity",
  "base": {
    "protocol": "tetrabft-multi",
    "nodes": 4,
    "workload": {"slots": 400, "batch_size": 8, "window": 2,
                 "arrival": {"process": "poisson", "rate": 1}},
    "stop": {"horizon": 800}
  },
  "min_rate": 10,
  "max_rate": 4000,
  "load_ticks": 200,
  "assert": ["max_backlog <= 0", "max_tx_p99 <= 150"]
}`
	path := filepath.Join(dir, "capacity.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCapacityModeFile runs a capacity plan file end to end: exit 0, probe
// table, tetrabft-capacity/v1 snapshot written.
func TestCapacityModeFile(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "cap.json")
	var out strings.Builder
	code, err := run(options{capacity: smallCapacity(t, dir), format: "md", jsonPath: snap}, &out)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v\n%s", code, err, out.String())
	}
	for _, want := range []string{"## capacity: cli-capacity", "knee:", "verdict: PASS"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.ParseCapacityResult(data)
	if err != nil || res.Schema != sweep.CapacitySchema {
		t.Fatalf("snapshot does not parse as %s: %v", sweep.CapacitySchema, err)
	}
	if res.KneeRate == 0 || !res.Saturated {
		t.Errorf("snapshot knee=%d saturated=%v, want a saturated knee", res.KneeRate, res.Saturated)
	}
}

// TestCapacityModeVerdicts pins the capacity exit codes: a missed
// target_rate is exit 1 without an error, an unknown plan is an error, and
// csv is rejected up front.
func TestCapacityModeVerdicts(t *testing.T) {
	dir := t.TempDir()
	path := smallCapacity(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sweep.ParseCapacity(data)
	if err != nil {
		t.Fatal(err)
	}
	cp.TargetRate = cp.MaxRate * 10
	strict, err := cp.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	miss := filepath.Join(dir, "miss.json")
	if err := os.WriteFile(miss, strict, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := run(options{capacity: miss, format: "md"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), "verdict: FAIL") {
		t.Errorf("missed target: code=%d, want 1 with a FAIL verdict:\n%s", code, out.String())
	}

	if code, err := run(options{capacity: "no-such-plan", format: "md"}, &out); err == nil || code != 1 {
		t.Errorf("unknown plan: code=%d err=%v", code, err)
	}
	if _, err := run(options{capacity: path, format: "csv"}, &out); err == nil {
		t.Error("-format csv accepted for -capacity")
	}
}

// TestListIncludesCapacityPlans: -list shows both registries.
func TestListIncludesCapacityPlans(t *testing.T) {
	var out strings.Builder
	code, err := run(options{list: true, format: "md"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	for _, want := range []string{"offered-load-shootout", "tetrabft-multi-capacity"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list lacks %q:\n%s", want, out.String())
		}
	}
}

// TestFuzzFormats pins -format handling in fuzz mode: json emits the
// machine-readable report, csv is rejected up front.
func TestFuzzFormats(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	code, err := run(options{fuzzRuns: 5, fuzzSeed: 1, format: "json", outDir: dir}, &out)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	if !strings.Contains(out.String(), `"schema": "tetrabft-fuzz/v1"`) {
		t.Errorf("-format json did not emit the fuzz report:\n%s", out.String())
	}
	if _, err := run(options{fuzzRuns: 5, format: "csv", outDir: dir}, &out); err == nil {
		t.Error("-format csv accepted for -fuzz")
	}
	if _, err := run(options{fuzzRuns: 5, format: "yaml", outDir: dir}, &out); err == nil {
		t.Error("unknown format accepted for -fuzz")
	}
}
