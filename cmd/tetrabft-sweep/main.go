// Command tetrabft-sweep runs declarative experiment grids and fuzzing
// campaigns on the sweep engine.
//
// Modes (exactly one):
//
//	-run S           run a sweep: S is a bundled sweep name (-list shows
//	                 them) or a JSON sweep spec file (see internal/sweep and
//	                 the EXPERIMENTS.md "Sweeps & fuzzing" section)
//	-capacity P      run a capacity plan: bracket and bisect to the highest
//	                 offered rate the SLOs sustain. P is a bundled plan name
//	                 (-list shows them) or a JSON plan file; the snapshot is
//	                 tetrabft-capacity/v1 and a plan that finds no knee (or
//	                 misses its target_rate) exits 1
//	-fuzz N          sample and run N random scenarios; any failure is
//	                 shrunk to a minimal reproducing Scenario JSON
//	-compare A B     diff two tetrabft-sweep/v1 snapshots
//	-list            list the bundled named sweeps and capacity plans
//
// Reports go to stdout (-format md|csv|json, default md) and are
// byte-identical across runs and GOMAXPROCS values; -json FILE additionally
// writes the tetrabft-sweep/v1 snapshot, the artifact the ROADMAP's
// regression methodology compares across commits (-compare exits 0 when two
// snapshots carry identical measurements, 1 otherwise). A failing sweep
// verdict or any fuzzing finding also exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tetrabft/internal/obs"
	"tetrabft/internal/scenario"
	"tetrabft/internal/sweep"
)

func main() {
	var (
		runPath    = flag.String("run", "", "run a sweep (bundled name or JSON file)")
		capacity   = flag.String("capacity", "", "run a capacity plan (bundled name or JSON file)")
		fuzzRuns   = flag.Int("fuzz", 0, "sample and run this many random scenarios")
		compare    = flag.Bool("compare", false, "diff the two snapshot files given as arguments")
		list       = flag.Bool("list", false, "list the bundled named sweeps")
		format     = flag.String("format", "md", "stdout report format: md, csv or json")
		jsonPath   = flag.String("json", "", "also write the tetrabft-sweep/v1 (or fuzz) snapshot to this path")
		fuzzSeed   = flag.Int64("fuzz-seed", 1, "fuzzing campaign seed")
		maxNodes   = flag.Int("fuzz-max-nodes", 0, "largest sampled cluster (default 7)")
		protocols  = flag.String("fuzz-protocols", "", "comma-separated protocol pool (default: fault-tolerant set)")
		mutations  = flag.String("fuzz-mutations", "", "comma-separated broken variants to fuzz against (e.g. skip-rule-3)")
		outDir     = flag.String("out", "", "directory for shrunken failing scenario specs (default: alongside -json, else .)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	flag.Parse()
	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrabft-sweep:", err)
		os.Exit(1)
	}
	code, err := run(options{
		runPath: *runPath, capacity: *capacity, fuzzRuns: *fuzzRuns, compare: *compare,
		list: *list, format: *format, jsonPath: *jsonPath, fuzzSeed: *fuzzSeed,
		maxNodes: *maxNodes, protocols: *protocols, mutations: *mutations,
		outDir: *outDir, args: flag.Args(),
	}, os.Stdout)
	// The profile stop must land before os.Exit or the CPU profile is
	// truncated and the heap profile never written.
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, "tetrabft-sweep:", perr)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrabft-sweep:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

type options struct {
	runPath          string
	capacity         string
	fuzzRuns         int
	compare, list    bool
	format, jsonPath string
	fuzzSeed         int64
	maxNodes         int
	protocols        string
	mutations        string
	outDir           string
	args             []string
}

// run executes one mode and returns the process exit code (0 pass, 1 fail).
func run(opts options, stdout io.Writer) (int, error) {
	modes := 0
	for _, on := range []bool{opts.runPath != "", opts.capacity != "", opts.fuzzRuns > 0, opts.compare, opts.list} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return 1, fmt.Errorf("pick exactly one mode: -run SWEEP, -capacity PLAN, -fuzz N, -compare A B or -list")
	}
	switch opts.format {
	case "md", "csv", "json":
	default:
		return 1, fmt.Errorf("unknown -format %q (accepted: md, csv, json)", opts.format)
	}

	switch {
	case opts.list:
		for _, sw := range sweep.Named() {
			fmt.Fprintf(stdout, "%-25s sweep     %d axes, %d asserts\n", sw.Name, len(sw.Axes), len(sw.Assert))
		}
		for _, cp := range sweep.NamedCapacity() {
			fmt.Fprintf(stdout, "%-25s capacity  bracket [%d, %d], %d asserts\n", cp.Name, cp.MinRate, cp.MaxRate, len(cp.Assert))
		}
		return 0, nil

	case opts.compare:
		return runCompare(opts, stdout)

	case opts.fuzzRuns > 0:
		return runFuzz(opts, stdout)

	case opts.capacity != "":
		return runCapacity(opts, stdout)
	}

	sw, ok := sweep.ByName(opts.runPath)
	if !ok {
		data, err := os.ReadFile(opts.runPath)
		if err != nil {
			return 1, fmt.Errorf("-run %q is neither a bundled sweep (-list shows them) nor a readable file: %w", opts.runPath, err)
		}
		if sw, err = sweep.Parse(data); err != nil {
			return 1, err
		}
	}
	res, err := sweep.Run(sw)
	if err != nil {
		return 1, err
	}
	switch opts.format {
	case "csv":
		sweep.WriteCSV(stdout, res)
	case "json":
		data, err := res.MarshalIndent()
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(stdout, "%s\n", data)
	default: // "md", validated above
		sweep.WriteMarkdown(stdout, res)
	}
	if opts.jsonPath != "" {
		data, err := res.MarshalIndent()
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(opts.jsonPath, append(data, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	if !res.Pass {
		return 1, nil
	}
	return 0, nil
}

// runCapacity resolves the plan (bundled name first, then a JSON file),
// runs the knee search and reports it.
func runCapacity(opts options, stdout io.Writer) (int, error) {
	cp, ok := sweep.CapacityByName(opts.capacity)
	if !ok {
		data, err := os.ReadFile(opts.capacity)
		if err != nil {
			return 1, fmt.Errorf("-capacity %q is neither a bundled plan (-list shows them) nor a readable file: %w", opts.capacity, err)
		}
		if cp, err = sweep.ParseCapacity(data); err != nil {
			return 1, err
		}
	}
	res, err := sweep.RunCapacity(cp)
	if err != nil {
		return 1, err
	}
	switch opts.format {
	case "csv":
		return 1, fmt.Errorf("-format csv is not supported for -capacity (use md or json)")
	case "json":
		data, err := res.MarshalIndent()
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(stdout, "%s\n", data)
	default: // "md", validated above
		sweep.WriteCapacityMarkdown(stdout, res)
	}
	if opts.jsonPath != "" {
		data, err := res.MarshalIndent()
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(opts.jsonPath, append(data, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	if !res.Pass {
		return 1, nil
	}
	return 0, nil
}

func runCompare(opts options, stdout io.Writer) (int, error) {
	if len(opts.args) != 2 {
		return 1, fmt.Errorf("-compare wants exactly two snapshot files")
	}
	results := make([]*sweep.Result, 2)
	for i, path := range opts.args {
		data, err := os.ReadFile(path)
		if err != nil {
			return 1, err
		}
		if results[i], err = sweep.ParseResult(data); err != nil {
			return 1, fmt.Errorf("%s: %w", path, err)
		}
	}
	diffs := sweep.Diff(results[0], results[1])
	if len(diffs) == 0 {
		fmt.Fprintln(stdout, "snapshots carry identical measurements")
		return 0, nil
	}
	for _, d := range diffs {
		fmt.Fprintln(stdout, d)
	}
	fmt.Fprintf(stdout, "%d difference(s)\n", len(diffs))
	return 1, nil
}

func runFuzz(opts options, stdout io.Writer) (int, error) {
	cfg := sweep.FuzzConfig{
		Seed:     opts.fuzzSeed,
		Runs:     opts.fuzzRuns,
		MaxNodes: opts.maxNodes,
	}
	for _, p := range splitList(opts.protocols) {
		cfg.Protocols = append(cfg.Protocols, scenario.Protocol(p))
	}
	for _, m := range splitList(opts.mutations) {
		cfg.Mutations = append(cfg.Mutations, scenario.Mutation(m))
	}
	if opts.format == "csv" {
		return 1, fmt.Errorf("-format csv is not supported for -fuzz (use md or json)")
	}
	rep, err := sweep.Fuzz(cfg)
	if err != nil {
		return 1, err
	}
	if opts.jsonPath != "" {
		data, err := marshalIndent(rep)
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(opts.jsonPath, append(data, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	dir := opts.outDir
	if dir == "" {
		if opts.jsonPath != "" {
			dir = filepath.Dir(opts.jsonPath)
		} else {
			dir = "."
		}
	}
	// Stale reproducers from an earlier campaign in the same directory
	// would read as current findings; clear them before writing.
	old, err := filepath.Glob(filepath.Join(dir, "fuzz-fail-*.json"))
	if err != nil {
		return 1, err
	}
	for _, path := range old {
		if err := os.Remove(path); err != nil {
			return 1, err
		}
	}
	if opts.format == "json" {
		data, err := marshalIndent(rep)
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(stdout, "%s\n", data)
	} else {
		fmt.Fprintf(stdout, "fuzz: %d scenarios, seed %d: %d failure(s)\n", rep.Runs, rep.Seed, len(rep.Failures))
	}
	if len(rep.Failures) == 0 {
		return 0, nil
	}
	for i, f := range rep.Failures {
		data, err := f.Scenario.MarshalIndent()
		if err != nil {
			return 1, err
		}
		path := filepath.Join(dir, fmt.Sprintf("fuzz-fail-%d.json", i))
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return 1, err
		}
		if opts.format != "json" { // the JSON report already carries the findings
			fmt.Fprintf(stdout, "  #%d %s (%d shrink steps): %s\n", i, f.Kind, f.ShrinkSteps, f.Detail)
			fmt.Fprintf(stdout, "     minimal reproducer written to %s (run it with tetrabft-sim -scenario)\n", path)
		}
	}
	return 1, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func marshalIndent(v any) ([]byte, error) {
	return json.MarshalIndent(v, "", "  ")
}
