package tetrabft_test

// This file regenerates the paper's experiments as Go benchmarks (go test
// -bench=. -benchmem): one sub-benchmark per paper-* sweep of the spec
// library, which fails when a claim of the paper does not hold. The claims
// themselves are the sweeps' assert clauses; examples/README.md maps each
// to the paper. The microbenchmarks below time the hot paths.

import (
	"fmt"
	"strings"
	"testing"

	"tetrabft/internal/core"
	"tetrabft/internal/quorum"
	"tetrabft/internal/scenario"
	"tetrabft/internal/sim"
	"tetrabft/internal/sweep"
	"tetrabft/internal/types"
)

// BenchmarkPaperSweeps runs every paper-* sweep (E1–E6, E8, the timeout
// ablation, E10 and E11) and fails on a FAIL verdict.
func BenchmarkPaperSweeps(b *testing.B) {
	for _, sw := range sweep.Named() {
		if !strings.HasPrefix(sw.Name, "paper-") {
			continue
		}
		b.Run(sw.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sweep.Run(sw)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Pass {
					b.Fatalf("%s: verdict FAIL (%d cells)", sw.Name, res.FailedCells)
				}
			}
		})
	}
}

// --- Microbenchmarks of the hot paths ---

// BenchmarkGoodCaseRun measures simulator + protocol throughput for one
// complete 4-node single-shot instance.
func BenchmarkGoodCaseRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.New(sim.Config{Seed: int64(i)})
		for id := 0; id < 4; id++ {
			n, err := core.NewNode(core.Config{ID: types.NodeID(id), Nodes: 4, InitialValue: "v"})
			if err != nil {
				b.Fatal(err)
			}
			r.Add(n)
		}
		if err := r.Run(0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeaderSafeValue measures Rule 1 (Algorithm 4) on a loaded
// suggest set.
func BenchmarkLeaderSafeValue(b *testing.B) {
	qs := quorum.MustThreshold(10)
	suggests := make(map[types.NodeID]types.SuggestMsg, 10)
	for i := 0; i < 10; i++ {
		suggests[types.NodeID(i)] = types.SuggestMsg{
			View:      8,
			Vote2:     types.Vote(types.View(i%7), types.Value(fmt.Sprintf("val-%d", i%3))),
			PrevVote2: types.Vote(types.View(i%5), types.Value(fmt.Sprintf("val-%d", (i+1)%3))),
			Vote3:     types.Vote(types.View(i%6), types.Value(fmt.Sprintf("val-%d", i%3))),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.LeaderSafeValue(qs, 0, suggests, 8, "init")
	}
}

// BenchmarkProposalSafe measures Rule 3 (Algorithm 5) on a loaded proof set.
func BenchmarkProposalSafe(b *testing.B) {
	qs := quorum.MustThreshold(10)
	proofs := make(map[types.NodeID]types.ProofMsg, 10)
	for i := 0; i < 10; i++ {
		proofs[types.NodeID(i)] = types.ProofMsg{
			View:      8,
			Vote1:     types.Vote(types.View(i%7), types.Value(fmt.Sprintf("val-%d", i%3))),
			PrevVote1: types.Vote(types.View(i%5), types.Value(fmt.Sprintf("val-%d", (i+1)%3))),
			Vote4:     types.Vote(types.View(i%6), types.Value(fmt.Sprintf("val-%d", i%3))),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ProposalSafe(qs, 0, proofs, 8, "val-1")
	}
}

// BenchmarkEncodeDecode measures the wire codec round trip for the largest
// common message shape.
func BenchmarkEncodeDecode(b *testing.B) {
	msg := types.SuggestMsg{
		View:      12,
		Vote2:     types.Vote(11, "value-abcdef"),
		PrevVote2: types.Vote(9, "value-ghijkl"),
		Vote3:     types.Vote(10, "value-abcdef"),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data := types.Encode(msg)
		if _, err := types.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineBlocks measures end-to-end multi-shot throughput in
// finalized blocks per second of wall time, on Figure 2's shape: four nodes,
// Δ = 10, unit delays.
func BenchmarkPipelineBlocks(b *testing.B) {
	const slots = 50
	sc := scenario.Scenario{
		Protocol: scenario.TetraBFTMulti,
		Nodes:    4,
		Delta:    10,
		Workload: scenario.WorkloadSpec{Slots: slots},
		Stop:     scenario.StopSpec{Horizon: 20*slots + 2000},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range res.Finalized {
			if f.Slot < slots {
				b.Fatalf("node %d finalized %d of %d slots", f.Node, f.Slot, slots)
			}
		}
	}
	b.ReportMetric(slots, "blocks/op")
}
