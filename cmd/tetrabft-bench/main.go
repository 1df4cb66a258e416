// Command tetrabft-bench reproduces the paper's evaluation on the
// deterministic simulator. It runs every paper-* sweep of the spec library
// (examples/sweeps), whose assert clauses state the paper's claims next to
// today's measured values, and prints each as a markdown table. Then it runs
// E7, the Section 5 model-checking reproduction. It exits 1 when a claim
// fails or E7 finds a violation. examples/README.md maps each claim to its
// clause; `tetrabft-sweep -run paper-e4` runs one experiment alone.
//
// With -json FILE the command also writes a perf snapshot (schema
// "tetrabft-bench/v2"): the host shape, each experiment's wall-clock
// duration, each sweep's tetrabft-sweep/v1 result and E7's result. The
// results object is byte-identical at any GOMAXPROCS.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"tetrabft/internal/bench"
	"tetrabft/internal/checker"
	"tetrabft/internal/obs"
	"tetrabft/internal/sweep"
)

func main() {
	var (
		effort     = flag.Int("effort", 1, "E7 verification effort multiplier (1 = CI sizing)")
		jsonPath   = flag.String("json", "", "write a tetrabft-bench/v2 perf snapshot to this path")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiments to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	flag.Parse()
	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrabft-bench:", err)
		os.Exit(1)
	}
	code, err := run(os.Stdout, bench.Sweeps(), *effort, *jsonPath)
	// The profile stop must land before os.Exit or the CPU profile is
	// truncated and the heap profile never written.
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, "tetrabft-bench:", perr)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrabft-bench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// snapshot is the perf record serialized by -json.
type snapshot struct {
	Schema      string             `json:"schema"`
	GeneratedAt string             `json:"generated_at"`
	Host        hostInfo           `json:"host"`
	Params      map[string]int     `json:"params"`
	TimingsMS   map[string]float64 `json:"timings_ms"`
	Results     map[string]any     `json:"results"`
}

type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// run executes the sweeps and E7, prints their reports to w, writes the
// snapshot when jsonPath is set, and returns the exit code: 0 when every
// claim holds, 1 otherwise.
func run(w io.Writer, sweeps []sweep.Sweep, effort int, jsonPath string) (int, error) {
	snap := snapshot{
		Schema:      "tetrabft-bench/v2",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host: hostInfo{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Params:    map[string]int{"effort": effort},
		TimingsMS: make(map[string]float64),
		Results:   make(map[string]any),
	}
	pass := true
	for _, sw := range sweeps {
		start := time.Now()
		res, err := sweep.Run(sw)
		if err != nil {
			return 1, err
		}
		snap.TimingsMS[sw.Name] = msSince(start)
		snap.Results[sw.Name] = res
		sweep.WriteMarkdown(w, res)
		fmt.Fprintln(w)
		pass = pass && res.Pass
	}

	start := time.Now()
	v, err := Verification(effort)
	if err != nil {
		return 1, err
	}
	snap.TimingsMS["e7"] = msSince(start)
	snap.Results["e7"] = v
	fmt.Fprintln(w, "## E7: Section 5 — formal verification reproduction")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "bounded BFS states:        %d (truncated: %v)\n", v.BFSStates, v.BFSTruncated)
	fmt.Fprintf(w, "guided-walk states:        %d (paper config: 4 nodes, 1 Byz, 3 values, 5 views)\n", v.WalkStates)
	fmt.Fprintf(w, "induction samples/steps:   %d / %d\n", v.InductionSamples, v.InductionSteps)
	fmt.Fprintf(w, "liveness fixpoint runs:    %d\n", v.LivenessRuns)
	fmt.Fprintf(w, "violations:                %d (expected: 0)\n", v.Violations)
	pass = pass && v.Violations == 0

	if jsonPath != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return 1, fmt.Errorf("writing perf snapshot: %w", err)
		}
		fmt.Fprintf(w, "\nperf snapshot written to %s\n", jsonPath)
	}
	if !pass {
		fmt.Fprintln(w, "\nverdict: FAIL (a paper claim does not hold)")
		return 1, nil
	}
	fmt.Fprintln(w, "\nverdict: PASS")
	return 0, nil
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// VerificationResult summarizes the Section 5 reproduction.
type VerificationResult struct {
	BFSStates        int
	BFSTruncated     bool
	WalkStates       int
	InductionSamples int
	InductionSteps   int
	LivenessRuns     int
	Violations       int
}

// Verification runs the model-checking reproduction of Section 5 (E7) at
// the given effort (1 = quick CI sizing, larger = deeper): a bounded BFS of
// a small configuration, then guided walks, sampled induction and the
// liveness fixpoint on the paper's configuration.
func Verification(effort int) (VerificationResult, error) {
	effort = max(effort, 1)
	var res VerificationResult
	small, err := checker.NewSpec(checker.Config{Nodes: 4, Faulty: 1, Values: 2, Rounds: 2, GoodRound: -1})
	if err != nil {
		return res, err
	}
	bfs := small.BFS(20000*effort, 10+effort)
	res.BFSStates, res.BFSTruncated = bfs.StatesExplored, bfs.Truncated
	paper, err := checker.NewSpec(checker.PaperConfig())
	if err != nil {
		return res, err
	}
	walks := paper.GuidedWalks(30*effort, 80, 1)
	res.WalkStates = walks.StatesExplored
	ind := paper.InductionSample(60*effort, 2)
	res.InductionSamples, res.InductionSteps = ind.SamplesAccepted, ind.StepsChecked
	live := paper.LivenessFixpoint(10*effort, 20, 3)
	res.LivenessRuns = live.Runs
	for _, violated := range []bool{bfs.Violation != nil, walks.Violation != nil, ind.Violation != nil, live.Violation != nil} {
		if violated {
			res.Violations++
		}
	}
	return res, nil
}
