package bench

import (
	"strings"
	"testing"

	"tetrabft/internal/types"
)

// TestTable1MatchesPaper asserts the measured latency columns reproduce
// Table 1 exactly (E1).
func TestTable1MatchesPaper(t *testing.T) {
	rows, err := Table1(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.GoodCaseDelays != row.PaperGoodCase {
			t.Errorf("%s good case: measured %d, paper %d", row.Protocol, row.GoodCaseDelays, row.PaperGoodCase)
		}
		if row.ViewChangeDelays >= 0 && row.ViewChangeDelays != row.PaperViewChange {
			t.Errorf("%s view change: measured %d, paper %d", row.Protocol, row.ViewChangeDelays, row.PaperViewChange)
		}
	}
	var sb strings.Builder
	WriteTable1(&sb, rows)
	if !strings.Contains(sb.String(), "TetraBFT") {
		t.Error("rendered table missing TetraBFT row")
	}
}

// TestCommunicationShape asserts E2: TetraBFT total bytes grow ≈
// quadratically while PBFT's view change grows ≈ cubically, so the ratio
// between them widens with n.
func TestCommunicationShape(t *testing.T) {
	rows, err := CommunicationSweep([]int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	get := func(proto string, n int, scenario string) int64 {
		for _, row := range rows {
			if row.Protocol == proto && row.N == n && row.Scenario == scenario {
				return row.TotalBytes
			}
		}
		t.Fatalf("missing row %s/%d/%s", proto, n, scenario)
		return 0
	}
	// TetraBFT good case: 4× nodes ⇒ ≈16× bytes (quadratic).
	tetraRatio := float64(get("TetraBFT", 16, "good-case")) / float64(get("TetraBFT", 4, "good-case"))
	if tetraRatio < 8 || tetraRatio > 32 {
		t.Errorf("TetraBFT bytes scaled %.1f× for 4× nodes; want ≈16 (quadratic)", tetraRatio)
	}
	// PBFT view change grows strictly faster than TetraBFT's.
	pbftRatio := float64(get("PBFT (bounded)", 16, "view-change")) / float64(get("PBFT (bounded)", 4, "view-change"))
	tetraVCRatio := float64(get("TetraBFT", 16, "view-change")) / float64(get("TetraBFT", 4, "view-change"))
	if pbftRatio <= tetraVCRatio {
		t.Errorf("PBFT view-change bytes scaled %.1f×, TetraBFT %.1f×; expected PBFT to grow faster (cubic vs quadratic)",
			pbftRatio, tetraVCRatio)
	}
}

// TestStorageShape asserts E3: constant storage for TetraBFT/IT-HS/bounded
// PBFT, unbounded growth for the unbounded PBFT row.
func TestStorageShape(t *testing.T) {
	rows, err := StorageSweep(6)
	if err != nil {
		t.Fatal(err)
	}
	byProto := make(map[string]int64)
	for _, row := range rows {
		byProto[row.Protocol] = row.Bytes
	}
	for _, proto := range []string{"TetraBFT", "IT-HS", "PBFT (bounded)"} {
		if byProto[proto] > 256 {
			t.Errorf("%s stored %d bytes after 6 failed views; want constant", proto, byProto[proto])
		}
	}
	if byProto["PBFT (unbounded)"] <= byProto["PBFT (bounded)"] {
		t.Errorf("unbounded PBFT stored %d bytes, bounded %d; expected growth", byProto["PBFT (unbounded)"], byProto["PBFT (bounded)"])
	}

	// The unbounded log must keep growing with more failed views while the
	// constant-storage protocols stay flat.
	longer, err := StorageSweep(12)
	if err != nil {
		t.Fatal(err)
	}
	longerByProto := make(map[string]int64)
	for _, row := range longer {
		longerByProto[row.Protocol] = row.Bytes
	}
	if longerByProto["PBFT (unbounded)"] <= byProto["PBFT (unbounded)"] {
		t.Errorf("unbounded PBFT did not grow from 6 to 12 failed views (%d → %d)",
			byProto["PBFT (unbounded)"], longerByProto["PBFT (unbounded)"])
	}
	for _, proto := range []string{"TetraBFT", "IT-HS", "PBFT (bounded)"} {
		if longerByProto[proto] != byProto[proto] {
			t.Errorf("%s footprint changed with more views (%d → %d); want constant",
				proto, byProto[proto], longerByProto[proto])
		}
	}
}

// TestResponsivenessShape asserts E4: recovery of responsive protocols is
// independent of Δ; the non-responsive blog version pays Δ.
func TestResponsivenessShape(t *testing.T) {
	rows, err := Responsiveness([]types.Duration{10, 50})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(proto string, delta types.Duration) int64 {
		for _, row := range rows {
			if row.Protocol == proto && row.Delta == delta {
				return row.Recovery
			}
		}
		t.Fatalf("missing row %s/Δ=%d", proto, delta)
		return 0
	}
	for _, proto := range []string{"TetraBFT", "IT-HS", "PBFT (bounded)"} {
		if rec(proto, 10) != rec(proto, 50) {
			t.Errorf("%s recovery changed with Δ (%d vs %d); responsive protocols must not", proto, rec(proto, 10), rec(proto, 50))
		}
	}
	blogSmall, blogLarge := rec("IT-HS (blog)", 10), rec("IT-HS (blog)", 50)
	if blogLarge-blogSmall != 40 {
		t.Errorf("blog IT-HS recovery grew by %d for ΔΔ=40; want exactly the Δ increase", blogLarge-blogSmall)
	}
	if rec("TetraBFT", 10) != 7 {
		t.Errorf("TetraBFT recovery = %d delays, want 7", rec("TetraBFT", 10))
	}
}

// TestFig2Shape asserts E5: one block per delay and ≈5× throughput.
func TestFig2Shape(t *testing.T) {
	res, err := Fig2Pipeline(20)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanInterval != 1 {
		t.Errorf("mean finalization interval = %.2f delays, want 1 (Figure 2)", res.MeanInterval)
	}
	if res.ThroughputSpeedup != 5 {
		t.Errorf("throughput speedup = %.2f, want 5× (Section 6)", res.ThroughputSpeedup)
	}
}

// TestFig3Shape asserts E6/E9: ≤5 aborted slots and recovery within 5Δ.
func TestFig3Shape(t *testing.T) {
	res, err := Fig3ViewChange()
	if err != nil {
		t.Fatal(err)
	}
	if res.AbortedSlots > 5 {
		t.Errorf("%d slots aborted; the paper bounds this by 5", res.AbortedSlots)
	}
	if res.AbortedSlots == 0 {
		t.Error("no slots aborted; the scenario did not trigger a view change")
	}
	if res.RecoveryDelta > res.DeltaBound {
		t.Errorf("recovery took %d ticks, above the 5Δ = %d bound of §6.3", res.RecoveryDelta, res.DeltaBound)
	}
	if res.FinalizedSlots < 6 {
		t.Errorf("only %d slots finalized after recovery", res.FinalizedSlots)
	}
}

// TestVerificationRuns asserts E7 executes clean at CI effort.
func TestVerificationRuns(t *testing.T) {
	res, err := Verification(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("verification found %d violations", res.Violations)
	}
	if res.BFSStates == 0 || res.WalkStates == 0 || res.InductionSteps == 0 || res.LivenessRuns == 0 {
		t.Errorf("verification under-ran: %+v", res)
	}
}

func TestWriteComm(t *testing.T) {
	var sb strings.Builder
	WriteComm(&sb, []CommRow{{Protocol: "TetraBFT", N: 4, Scenario: "good-case", TotalBytes: 100, PerNodeBytes: 25}})
	if !strings.Contains(sb.String(), "good-case") {
		t.Error("rendered sweep missing scenario")
	}
}
