package tetrabft_test

import (
	"path/filepath"
	"testing"
	"time"

	"tetrabft"
)

// TestFacadeConstructors exercises the remaining public wrappers.
func TestFacadeConstructors(t *testing.T) {
	if _, err := tetrabft.NewThreshold(4); err != nil {
		t.Errorf("NewThreshold(4): %v", err)
	}
	if _, err := tetrabft.NewThreshold(0); err == nil {
		t.Error("NewThreshold(0) accepted")
	}

	txs := []tetrabft.Tx{tetrabft.SetTx("k", "v"), tetrabft.DelTx("k")}
	payload := tetrabft.EncodePayload(txs)
	decoded, err := tetrabft.DecodePayload(payload)
	if err != nil || len(decoded) != 2 {
		t.Errorf("payload round trip: %d txs, err %v", len(decoded), err)
	}

	mp := tetrabft.NewMempool(1)
	if !mp.Submit(tetrabft.SetTx("a", "b")) {
		t.Error("mempool rejected the first tx")
	}
	if mp.Submit(tetrabft.SetTx("c", "d")) {
		t.Error("mempool accepted beyond its limit")
	}

	set := tetrabft.QuorumSet(0, 1, 2)
	if set.Len() != 3 || !set.Has(1) {
		t.Errorf("QuorumSet = %v", set.Sorted())
	}

	if _, err := tetrabft.NewNode(tetrabft.Config{ID: 9, Nodes: 4}); err == nil {
		t.Error("NewNode accepted a non-member ID")
	}
	if _, err := tetrabft.NewChain(tetrabft.ChainConfig{ID: 0}); err == nil {
		t.Error("NewChain accepted an empty membership")
	}
	if _, err := tetrabft.Restore(tetrabft.Config{ID: 0, Nodes: 4}, tetrabft.PersistentState{View: -2}); err == nil {
		t.Error("Restore accepted a negative view")
	}
	if _, err := tetrabft.NewSlices(nil); err == nil {
		t.Error("NewSlices accepted an empty system")
	}
}

// TestFacadeRuntime spins up (and immediately shuts down) a TCP runtime
// through the façade.
func TestFacadeRuntime(t *testing.T) {
	node, err := tetrabft.NewNode(tetrabft.Config{ID: 0, Nodes: 4, InitialValue: "x", Delta: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := tetrabft.NewRuntime(node, tetrabft.RuntimeConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Addr() == "" {
		t.Error("empty listen address")
	}
	rt.Run()
	rt.Close()
}

// TestFacadeReplicaHost runs four replicas through the façade, each on a
// ChainWAL, kills one and relaunches it from its WAL, and checks that it
// finalizes again and agrees with the others.
func TestFacadeReplicaHost(t *testing.T) {
	hosts := make([]*tetrabft.ReplicaHost, 4)
	addrs := make(map[tetrabft.NodeID]string)
	for i := range hosts {
		dir := filepath.Join(t.TempDir(), "wal")
		h, err := tetrabft.LaunchReplica(tetrabft.ReplicaConfig{
			Node: tetrabft.ChainConfig{ID: tetrabft.NodeID(i), Nodes: 4, Delta: 10},
			Open: func() (tetrabft.ReplicaStore, error) { return tetrabft.OpenChainWAL(dir) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		hosts[i], addrs[tetrabft.NodeID(i)] = h, h.Addr()
	}
	for _, h := range hosts {
		h.Start(addrs)
	}
	reach := func(h *tetrabft.ReplicaHost, slot int64) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); h.Watermark() < slot; time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("replica at %s stuck at slot %d, want %d", h.Addr(), h.Watermark(), slot)
			}
		}
	}
	reach(hosts[3], 3)
	hosts[3].Kill()
	reach(hosts[0], 6)
	if err := hosts[3].Relaunch(); err != nil {
		t.Fatal(err)
	}
	reach(hosts[3], 6)
	for _, h := range hosts {
		h.Close()
	}
	ref := hosts[0].Node().FinalizedChain()
	for i, b := range hosts[3].Node().FinalizedChain() {
		if i < len(ref) && b.ID() != ref[i].ID() {
			t.Fatalf("the relaunched replica diverges at slot %d", b.Slot)
		}
	}
}

// TestFacadeChainStore exercises the chain-store wrapper.
func TestFacadeChainStore(t *testing.T) {
	store := tetrabft.NewChainStore()
	b1 := tetrabft.Block{Slot: 1, Payload: tetrabft.EncodePayload(nil)}
	if err := store.Append(b1); err != nil {
		t.Fatal(err)
	}
	if store.Height() != 1 {
		t.Errorf("Height = %d", store.Height())
	}
	kv := tetrabft.NewKV()
	kv.ApplyBlock(b1)
	if kv.Len() != 0 {
		t.Errorf("empty payload populated the KV: %d keys", kv.Len())
	}
}
