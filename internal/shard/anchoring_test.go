package shard_test

import (
	"testing"

	"tetrabft/internal/scenario"
	"tetrabft/internal/shard"
	"tetrabft/internal/types"
)

// TestAnchoringHashesEachBlockOnce: a sharded run's anchoring costs O(new
// blocks). Each finalized shard block is hashed twice for anchors over the
// whole run — once as its cluster's applied log takes it, and once as the
// fold verifies the anchors that cover it — and each anchor block once, by
// its log, however many anchoring rounds the run holds. Re-digesting the
// decided prefix every round would hash the early blocks once per round.
func TestAnchoringHashesEachBlockOnce(t *testing.T) {
	sc := scenario.Scenario{
		Name:     "anchoring-cost",
		Protocol: scenario.TetraBFTMulti,
		Shards:   &scenario.ShardsSpec{Count: 2, AnchorInterval: 10},
		Workload: scenario.WorkloadSpec{Slots: 200, TxCount: 2000, TxRate: 400, BatchSize: 16, Window: 2},
		Stop:     scenario.StopSpec{Horizon: 100000},
	}
	hashed := make(map[types.BlockID]int)
	defer shard.CountHashes(func(b types.Block) { hashed[b.ID()]++ })()
	res, err := scenario.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	epochs := int64(0)
	for _, sr := range res.Shards {
		if sr.Finalized < sc.Workload.Slots {
			t.Fatalf("shard %d finalized %d < %d", sr.Shard, sr.Finalized, sc.Workload.Slots)
		}
		epochs += sr.AnchorEpochs
	}
	if epochs < 20 {
		t.Fatalf("%d anchor epochs: too few rounds to tell re-hashing apart", epochs)
	}
	most := 0
	for _, n := range hashed {
		most = max(most, n)
	}
	if most > 2 {
		t.Errorf("a block was hashed %d times over %d anchor epochs, want at most 2", most, epochs)
	}
}
