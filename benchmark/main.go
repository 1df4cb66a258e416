// Command benchmark is the repository's wall-clock benchmark: five named
// workloads over the real TCP engine, the sharded gateway and the
// simulator, end-to-end metrics from an untraced run and per-layer metrics
// from a traced one. README.md in this directory is the reference.
//
//	benchmark                        every workload, untraced
//	benchmark -trace 1               every workload, traced: per-layer metrics
//	benchmark -workload tcp-steady   one workload alone
//	benchmark -repeat 5              five full sets and their spreads
//	benchmark -smoke                 every workload for about a second
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	var o runOpts
	var trace, repeat int
	var smoke, manifest bool
	var jsonOut string
	flag.StringVar(&o.workload, "workload", "", "run this workload alone (default: all five, each in a child process; the driver runs four, see README.md)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for arrival schedules, keys, reader choices and the simulator")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "measured seconds per workload (fixed-work workloads scale their work by it)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: timing wrappers on the layer interfaces, isolated probes, per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default: tetrabench-trace-<workload>.json in the temp directory)")
	flag.IntVar(&repeat, "repeat", 0, "run this many full sets and print each end-to-end metric's spread against its bound")
	flag.BoolVar(&smoke, "smoke", false, "every workload for about a second, correctness gates on")
	flag.StringVar(&jsonOut, "json", "", "also write the results, with the host's shape, to this file")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json as the benchmark's tables define it, and exit")
	flag.Parse()
	if manifest {
		data, err := manifestJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		return
	}
	o.traced = trace == 1
	o.setupReps = 12
	if smoke {
		o.seconds, o.setupReps = 1, 0
	}
	if flag.NArg() > 0 || trace < 0 || trace > 1 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -help")
		os.Exit(2)
	}
	if err := run(o, repeat, smoke, jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o runOpts, repeat int, smoke bool, jsonOut string) error {
	host := readHost()
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s; loopback TCP, no injected message delay: latency is processor + persist time; gated cluster runs persist to a %v model disk or not at all, the others to WALs on %s (%s)\n",
		host.NProc, host.GOMAXPROCS, host.GoVersion, modelWrite, host.FSType, host.TempDir)

	if o.workload != "" {
		if o.traceOut == "" {
			o.traceOut = filepath.Join(os.TempDir(), "tetrabench-trace-"+o.workload+".json")
		}
		res, err := runWorkload(o)
		if err != nil {
			return err
		}
		printResult(res)
		if jsonOut != "" {
			if err := writeJSON(jsonOut, host, o, [][]*result{{res}}); err != nil {
				return err
			}
		}
		return printContractLine(res)
	}

	sets := repeat
	if sets < 1 {
		sets = 1
	}
	var all [][]*result
	for s := 0; s < sets; s++ {
		if sets > 1 {
			fmt.Printf("\n=== set %d of %d ===\n", s+1, sets)
		}
		set, err := runSet(o, smoke)
		if err != nil {
			return err
		}
		all = append(all, set)
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, host, o, all); err != nil {
			return err
		}
	}
	if repeat > 1 {
		return printSpreads(all)
	}
	return nil
}

// runSet runs the five workloads, each in a fresh child process of this
// same binary, so one workload's heap, goroutines and peak RSS never leak
// into the next one's numbers.
func runSet(o runOpts, smoke bool) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "tetrabench-set-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var set []*result
	for _, w := range workloadDefs {
		out := filepath.Join(dir, w.name+".json")
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-json", out}
		if o.traced {
			args = append(args, "-trace", "1")
			if o.traceOut != "" {
				args = append(args, "-trace-out", strings.TrimSuffix(o.traceOut, ".json")+"-"+w.name+".json")
			}
		}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		// The child's report, minus its host line and its contract line.
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		if len(lines) > 2 {
			fmt.Println(strings.Join(lines[1:len(lines)-1], "\n"))
		}
		var doc resultsDoc
		data, err := os.ReadFile(out)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.Sets) != 1 || len(doc.Sets[0]) != 1 {
			return nil, fmt.Errorf("workload %s: unreadable result file", w.name)
		}
		set = append(set, doc.Sets[0][0])
	}
	return set, nil
}

func printResult(res *result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Printf("\n%s  seed %d  %d s measured  %s  correctness gate passed  (%.1f s wall)\n", res.Workload, res.Seed, res.Seconds, mode, res.WallS)
	fmt.Printf("  attempted %d  failed %d\n", res.Attempted, res.Failed)
	for _, d := range endToEndDefs {
		printMetric(d.name, res.EndToEnd[d.name])
	}
	if res.Traced {
		for _, d := range perLayerDefs {
			if v, ok := res.PerLayer[d.name]; ok {
				printMetric(d.name, v)
			}
		}
		if len(res.Budget) > 0 {
			fmt.Println("  latency budget (traced run):")
			for _, line := range res.Budget {
				fmt.Println("    " + line)
			}
		}
		fmt.Printf("  spans written to %s\n", res.TraceFile)
	}
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
}

func printMetric(name string, v metricValue) {
	if v.Samples > 0 {
		fmt.Printf("  %-40s %14.4f %-6s (n=%d)\n", name, v.Value, v.Unit, v.Samples)
	} else {
		fmt.Printf("  %-40s %14.4f %s\n", name, v.Value, v.Unit)
	}
}

// printContractLine prints the one-object result line: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one.
func printContractLine(res *result) error {
	type contractMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := res.EndToEnd
	if res.Traced {
		src = res.PerLayer
	}
	metrics := map[string]contractMetric{}
	for name, v := range src {
		metrics[name] = contractMetric{v.Value, v.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// resultsDoc is the -json file: enough of the host's shape and the run's
// arguments for two files to be compared later.
type resultsDoc struct {
	Schema  string      `json:"schema"`
	Host    hostShape   `json:"host"`
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Traced  bool        `json:"traced"`
	When    string      `json:"generated_at"`
	Sets    [][]*result `json:"sets"`
}

func writeJSON(path string, host hostShape, o runOpts, sets [][]*result) error {
	data, err := json.MarshalIndent(resultsDoc{
		Schema: "tetrabft-benchmark/v1", Host: host, Seed: o.seed, Seconds: o.seconds,
		Traced: o.traced, When: time.Now().UTC().Format(time.RFC3339), Sets: sets,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printSpreads prints, per workload and end-to-end metric, the median and
// quartiles over the sets, the interquartile spread the driver gates on and
// the full range, each as a share of the median, and fails on a breach of
// the metric's bound.
func printSpreads(sets [][]*result) error {
	fmt.Printf("\nspread over %d sets: (Q3-Q1)/median is gated against the bound; (max-min)/median is shown beside it\n", len(sets))
	var breaches []string
	for wi, w := range workloadDefs {
		fmt.Printf("\n%s\n  %-20s %12s %12s %12s %9s %9s %7s\n", w.name, "metric", "Q1", "median", "Q3", "iqr/med", "rng/med", "bound")
		for _, d := range endToEndDefs {
			var xs []float64
			for _, set := range sets {
				xs = append(xs, set[wi].EndToEnd[d.name].Value)
			}
			q1, q2, q3 := quartiles(xs)
			sort.Float64s(xs)
			rng := 0.0
			if q2 != 0 {
				rng = (xs[len(xs)-1] - xs[0]) / q2
			}
			mark := ""
			if d.name != "setup_s" && w.name != ungatedWorkload && spread(xs) > d.bound {
				mark = "  BREACH"
				breaches = append(breaches, w.name+"/"+d.name)
			}
			fmt.Printf("  %-20s %12.4f %12.4f %12.4f %9.4f %9.4f %7.3f%s\n", d.name, q1, q2, q3, spread(xs), rng, d.bound, mark)
		}
	}
	if len(breaches) > 0 {
		return fmt.Errorf("spread exceeds the bound for %s", strings.Join(breaches, ", "))
	}
	return nil
}
