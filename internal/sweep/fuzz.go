package sweep

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"tetrabft/internal/par"
	"tetrabft/internal/scenario"
	"tetrabft/internal/sim"
	"tetrabft/internal/types"
)

// FuzzConfig declares the sampling envelope for randomized scenario
// generation. Every generated scenario is valid and — against a correct
// protocol — should both stay safe and decide before its horizon, because
// the generator never exceeds the fault budget f, always heals partitions,
// keeps actual delays within Δ and computes a generous horizon. Any
// agreement violation, stall or exhausted event budget is therefore a
// finding, not noise.
type FuzzConfig struct {
	// Seed drives the whole campaign (default 1). Same config + same seed
	// = same scenarios, same findings, same shrunken reproducers.
	Seed int64 `json:"seed,omitempty"`
	// Runs is how many scenarios to sample (default 25).
	Runs int `json:"runs,omitempty"`
	// MaxNodes bounds the cluster size (default 7, minimum 4).
	MaxNodes int `json:"max_nodes,omitempty"`
	// Protocols is the sampling pool (default: the fault-tolerant set —
	// tetrabft, tetrabft-multi, it-hotstuff, pbft). A chained protocol, or
	// one without views, is refused with ErrOutsideEnvelope.
	Protocols []scenario.Protocol `json:"protocols,omitempty"`
	// Mutations optionally mixes deliberately broken protocol variants
	// into the pool (TetraBFT only). This is how the fuzzer's own teeth
	// are tested: against MutationSkipRule3 it must find and shrink an
	// agreement violation.
	Mutations []scenario.Mutation `json:"mutations,omitempty"`
}

// FuzzReport is what a fuzzing campaign produced.
type FuzzReport struct {
	Schema string `json:"schema"` // "tetrabft-fuzz/v1"
	Seed   int64  `json:"seed"`
	Runs   int    `json:"runs"`
	// Failures holds one entry per failing scenario, each already shrunk
	// to a minimal reproducer, in generation order.
	Failures []Failure `json:"failures,omitempty"`
}

// Failure kinds.
const (
	// FailAgreement is a safety violation (errors.Is ErrAgreement).
	FailAgreement = "agreement"
	// FailStall means honest nodes did not reach the decision/slot target
	// by the scenario's horizon even though the regime is live.
	FailStall = "stall"
	// FailBudget means the run exhausted the simulator event budget
	// (typically a message or timer storm).
	FailBudget = "budget"
	// FailError is any other run error.
	FailError = "error"
)

// ErrOutsideEnvelope rejects a pool protocol the fuzz envelope does not fit,
// read from its row: a chained protocol, whose slots are single-shot runs
// the envelope samples directly, or one without views, since the envelope's
// faults (a silent or equivocating leader, a lossy prefix, a partition)
// assume a view change to recover through.
var ErrOutsideEnvelope = errors.New("outside the fuzz envelope")

// Failure is one failing scenario, shrunk to a minimal reproducer.
type Failure struct {
	// Kind classifies the failure (Fail* constants).
	Kind string `json:"kind"`
	// Detail is the failing run's error or stall description.
	Detail string `json:"detail"`
	// Scenario is the shrunken spec: running it standalone reproduces the
	// failure.
	Scenario scenario.Scenario `json:"scenario"`
	// Original is the spec as generated, before shrinking.
	Original scenario.Scenario `json:"original"`
	// ShrinkSteps counts accepted simplifications.
	ShrinkSteps int `json:"shrink_steps"`
}

// FuzzSchema identifies the fuzz report serialization format.
const FuzzSchema = "tetrabft-fuzz/v1"

// Fuzz samples cfg.Runs random valid scenarios, runs them in parallel, and
// greedily shrinks every failure to a minimal reproducing spec. The
// campaign is deterministic: generation happens up front from one seeded
// source, runs are folded in generation order, and shrinking tries a fixed
// candidate order.
func Fuzz(cfg FuzzConfig) (*FuzzReport, error) {
	cfg.Seed = cmp.Or(cfg.Seed, 1)
	cfg.Runs = cmp.Or(cfg.Runs, 25)
	cfg.MaxNodes = cmp.Or(cfg.MaxNodes, 7)
	if cfg.Seed < 0 {
		return nil, fmt.Errorf("sweep: negative fuzz seed %d", cfg.Seed)
	}
	if cfg.Runs < 0 {
		return nil, fmt.Errorf("sweep: negative fuzz runs %d", cfg.Runs)
	}
	if cfg.MaxNodes < 4 {
		return nil, fmt.Errorf("sweep: max_nodes %d below the minimum cluster of 4", cfg.MaxNodes)
	}
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = []scenario.Protocol{
			scenario.TetraBFT, scenario.TetraBFTMulti,
			scenario.ITHotStuff, scenario.PBFT,
		}
	}
	if len(cfg.Mutations) == 0 {
		cfg.Mutations = []scenario.Mutation{scenario.MutationNone}
	}
	// Reject bad pool entries up front: a typo'd protocol or mutation is a
	// config error and must not surface later as a "generated an invalid
	// scenario" generator bug, nor a protocol outside the envelope as a
	// string of findings.
	for _, p := range cfg.Protocols {
		switch d, ok := scenario.Lookup(p); {
		case ok && d.Chains != "":
			return nil, fmt.Errorf("sweep: fuzz protocol pool: protocol %q is %w: it chains single-shot %q runs; fuzz %q", p, ErrOutsideEnvelope, d.Chains, d.Chains)
		case ok && !d.Views:
			return nil, fmt.Errorf("sweep: fuzz protocol pool: protocol %q is %w: it has no view change to recover through", p, ErrOutsideEnvelope)
		}
		if err := (scenario.Scenario{Protocol: p, Nodes: 4}).Validate(); err != nil {
			return nil, fmt.Errorf("sweep: fuzz protocol pool: %w", err)
		}
	}
	for _, m := range cfg.Mutations {
		probe := scenario.Scenario{Protocol: scenario.TetraBFT, Nodes: 4, Mutation: m}
		if err := probe.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: fuzz mutation pool: %w", err)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := make([]scenario.Scenario, cfg.Runs)
	for i := range specs {
		sc := generate(rng, cfg)
		if err := sc.Validate(); err != nil {
			// A generator bug, not a finding: fail loudly.
			return nil, fmt.Errorf("sweep: generated an invalid scenario: %w", err)
		}
		specs[i] = sc
	}

	type verdict struct{ kind, detail string }
	verdicts, _ := par.Map(specs, func(_ int, sc scenario.Scenario) (verdict, error) {
		kind, detail := classify(sc)
		return verdict{kind: kind, detail: detail}, nil
	})

	report := &FuzzReport{Schema: FuzzSchema, Seed: cfg.Seed, Runs: cfg.Runs}
	for i, v := range verdicts {
		if v.kind == "" {
			continue
		}
		shrunk, steps := shrink(specs[i], v.kind)
		_, detail := classify(shrunk) // re-derive the minimal repro's message
		report.Failures = append(report.Failures, Failure{
			Kind:        v.kind,
			Detail:      detail,
			Scenario:    shrunk,
			Original:    specs[i],
			ShrinkSteps: steps,
		})
	}
	return report, nil
}

// classify runs one scenario and names its failure, if any ("" = passed).
func classify(sc scenario.Scenario) (kind, detail string) {
	res, err := scenario.Run(sc)
	if err != nil {
		switch {
		case errors.Is(err, scenario.ErrAgreement):
			return FailAgreement, err.Error()
		case errors.Is(err, sim.ErrEventBudget):
			return FailBudget, err.Error()
		default:
			return FailError, err.Error()
		}
	}
	d, _ := scenario.Lookup(sc.Protocol)
	if shortfall := d.Shortfall(sc, res); shortfall != "" {
		return FailStall, shortfall
	}
	return "", ""
}

// generate samples one valid scenario from the envelope. All draws come
// from rng, so a campaign is a pure function of (cfg, seed).
func generate(rng *rand.Rand, cfg FuzzConfig) scenario.Scenario {
	sc := scenario.Scenario{}
	sc.Protocol = cfg.Protocols[rng.Intn(len(cfg.Protocols))]
	d, _ := scenario.Lookup(sc.Protocol)
	if d.Shards && rng.Intn(4) == 0 {
		// A quarter of the draws of a shardable protocol sample the sharded
		// service layer instead of a flat cluster.
		return generateSharded(rng, sc.Protocol)
	}
	sc.Nodes = 4 + rng.Intn(cfg.MaxNodes-3)
	f := (sc.Nodes - 1) / 3
	sc.Seed = 1 + rng.Int63n(1<<30)
	sc.Delta = []int64{5, 10, 20}[rng.Intn(3)]
	sc.TimeoutFactor = []int{0, 9, 12}[rng.Intn(3)] // 0 = the default 9

	if d.Mutations && len(cfg.Mutations) > 0 {
		sc.Mutation = cfg.Mutations[rng.Intn(len(cfg.Mutations))]
	}

	// Delay model: actual delays stay well inside Δ so the 9Δ timeout
	// never livelocks an honest view.
	switch rng.Intn(4) {
	case 0: // sim default: constant 1
	case 1:
		sc.Network.Delay = &scenario.DelaySpec{Model: scenario.DelayConstant, D: 1 + rng.Int63n(2)}
	case 2:
		sc.Network.Delay = &scenario.DelaySpec{
			Model: scenario.DelayUniform, Min: 1, Max: 1 + rng.Int63n(sc.Delta/2),
		}
	case 3:
		// Asymmetric links: one far replica sits d ticks from a 1-tick
		// core (d stays within Δ/2, like the uniform case's maximum).
		far := types.NodeID(rng.Intn(sc.Nodes))
		d := 2 + rng.Int63n(max(sc.Delta/2-1, 1))
		var links []scenario.LinkDelaySpec
		for n := 0; n < sc.Nodes; n++ {
			if types.NodeID(n) == far {
				continue
			}
			links = append(links,
				scenario.LinkDelaySpec{From: types.NodeID(n), To: far, D: d},
				scenario.LinkDelaySpec{From: far, To: types.NodeID(n), D: d})
		}
		sc.Network.Delay = &scenario.DelaySpec{
			Model: scenario.DelayPerLink, Default: 1, Links: links,
		}
	}

	// Lossy asynchronous prefix until GST, half the time.
	if rng.Intn(2) == 0 {
		sc.Network.GST = []int64{50, 150}[rng.Intn(2)]
		sc.Network.DropBeforeGST = []float64{0.3, 0.6, 0.9}[rng.Intn(3)]
	}

	// Fault schedule. Node-replacing faults stay within the resilience
	// bound f, so a correct protocol must tolerate whatever is scheduled.
	budget := f
	var partitionEnd int64
	if d.Byzantine(scenario.FaultForgedHistory) && d.StarveDecision && budget > 0 && rng.Intn(4) == 0 {
		// The Lemma 8 cross-view attack pattern: starve everyone but one
		// honest node of the view-0 decision, then the Byzantine leader of
		// view 1 pushes a conflicting value with a forged history. A
		// correct protocol survives this; MutationSkipRule3 does not.
		spare := rng.Intn(sc.Nodes - 1)
		if spare >= 1 {
			spare++ // skip node 1, the Byzantine view-1 leader
		}
		sc.Faults = append(sc.Faults,
			scenario.FaultSpec{Type: scenario.FaultStarveDecision, Node: types.NodeID(spare), To: 5 * sc.Delta},
			scenario.FaultSpec{Type: scenario.FaultForgedHistory, Node: 1, View: 1, ValueA: "byz-b"},
		)
		budget--
	} else {
		nodeFaults := 0
		if budget > 0 {
			nodeFaults = rng.Intn(budget + 1)
		}
		perm := rng.Perm(sc.Nodes)
		for i := 0; i < nodeFaults; i++ {
			kind := []scenario.FaultType{scenario.FaultSilent, scenario.FaultEquivocator, scenario.FaultRandom}[rng.Intn(3)]
			fault := scenario.FaultSpec{Type: kind, Node: types.NodeID(perm[i])}
			if kind == scenario.FaultRandom {
				fault.Seed = 1 + rng.Int63n(1<<20)
			}
			// A fault the row does not hear is a silent node: it maps to
			// silent with no second draw, so every later draw stays put.
			if !d.Byzantine(kind) {
				fault = scenario.FaultSpec{Type: scenario.FaultSilent, Node: fault.Node}
			}
			sc.Faults = append(sc.Faults, fault)
		}
		// One message-level adversary, some of the time.
		switch rng.Intn(3) {
		case 0:
			switch rng.Intn(3) {
			case 0:
				sc.Faults = append(sc.Faults, scenario.FaultSpec{Type: scenario.FaultSuppressFinalPhase})
			case 1:
				sc.Faults = append(sc.Faults, scenario.FaultSpec{
					Type: scenario.FaultSuppressProposals, BelowView: 1 + rng.Int63n(2),
				})
			default:
				// A chain of healing partitions: split the cluster at a
				// random point, heal, maybe split differently again — each
				// strictly after the previous heal, all well before the
				// horizon.
				chain := 1 + rng.Intn(2)
				from := rng.Int63n(5 * sc.Delta)
				for c := 0; c < chain; c++ {
					cut := 1 + rng.Intn(sc.Nodes-1)
					perm := rng.Perm(sc.Nodes)
					groups := [][]types.NodeID{{}, {}}
					for i, p := range perm {
						g := 0
						if i >= cut {
							g = 1
						}
						groups[g] = append(groups[g], types.NodeID(p))
					}
					slices.Sort(groups[0])
					slices.Sort(groups[1])
					partitionEnd = from + 5*sc.Delta + rng.Int63n(10*sc.Delta)
					sc.Faults = append(sc.Faults, scenario.FaultSpec{
						Type: scenario.FaultPartition, Groups: groups, From: from, To: partitionEnd,
					})
					from = partitionEnd + 1 + rng.Int63n(5*sc.Delta)
				}
			}
		}
	}

	// Workload and stop condition. The horizon leaves room for the lossy
	// prefix, the partition and several timeout rounds per scheduled
	// fault, so a live regime always decides in time.
	tf := int64(sc.TimeoutFactor)
	if tf == 0 {
		tf = 9
	}
	if d.Multishot {
		sc.Workload.Slots = 1 + rng.Int63n(4)
	}
	sc.Stop.AllDecided = true
	sc.Stop.Horizon = sc.Network.GST + partitionEnd +
		tf*sc.Delta*(8+6*int64(len(sc.Faults))+4*sc.Workload.Slots)
	return sc
}

// generateSharded samples one valid sharded service-layer scenario: one or
// two 4-node shard clusters plus the anchor cluster, a small offered load
// that arrives up front (so the pipeline never starves mid-run), and at
// most one silent replica per shard — within each cluster's own f = 1
// budget, so every shard stays live and must reach its slot target and
// anchor at least once.
func generateSharded(rng *rand.Rand, proto scenario.Protocol) scenario.Scenario {
	sc := scenario.Scenario{Protocol: proto}
	sc.Seed = 1 + rng.Int63n(1<<30)
	sc.Delta = []int64{5, 10}[rng.Intn(2)]

	sh := &scenario.ShardsSpec{Count: 1 + rng.Intn(2)}
	if rng.Intn(2) == 0 {
		sh.CrossMix = 0.2
	}
	anchorInterval := int64(50) // the spec default
	if rng.Intn(2) == 0 {
		anchorInterval = []int64{25, 50}[rng.Intn(2)]
		sh.AnchorInterval = anchorInterval
	}
	sc.Shards = sh

	// Per-link delays are rejected on sharded specs (node IDs are
	// cluster-local), so only the uniform-envelope models apply.
	if rng.Intn(2) == 0 {
		sc.Network.Delay = &scenario.DelaySpec{Model: scenario.DelayConstant, D: 1 + rng.Int63n(2)}
	}

	// At most one silent replica, scoped to one shard.
	if rng.Intn(3) == 0 {
		sc.Faults = append(sc.Faults, scenario.FaultSpec{
			Type:  scenario.FaultSilent,
			Shard: rng.Intn(sh.Count),
			Node:  types.NodeID(rng.Intn(4)),
		})
	}

	sc.Workload = scenario.WorkloadSpec{
		Slots:     1 + rng.Int63n(4),
		BatchSize: 8,
		TxRate:    10000,
		TxCount:   10 + rng.Intn(20),
		Window:    2,
	}

	// Sharded sim runs stop on the horizon only: leave room for several
	// per-slot timeout rounds in a shard carrying a silent replica, plus a
	// few anchor quanta (completion is only checked on quantum boundaries).
	sc.Stop.Horizon = 9*sc.Delta*(8+6*int64(len(sc.Faults))+4*sc.Workload.Slots) +
		8*anchorInterval
	return sc
}
