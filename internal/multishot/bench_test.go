package multishot

import (
	"testing"
	"unsafe"

	"tetrabft/internal/obs"
	"tetrabft/internal/sim"
	"tetrabft/internal/types"
)

// recordedMsg is one message a peer addressed to the observed node.
type recordedMsg struct {
	from types.NodeID
	msg  types.Message
}

// recordDeliveries runs an n-node good-case pipeline on the simulator and
// records every message peers send to node 0, in send order (with unit
// delays that is also delivery order). Replaying the stream into a fresh
// node exercises exactly the steady-state deliver path, with nothing else
// on the profile.
func recordDeliveries(tb testing.TB, nodes int, maxSlot types.Slot) []recordedMsg {
	tb.Helper()
	var msgs []recordedMsg
	rec := adversaryFunc(func(from, to types.NodeID, msg types.Message, _ types.Time) sim.Verdict {
		if to == 0 && from != 0 {
			msgs = append(msgs, recordedMsg{from: from, msg: msg})
		}
		return sim.Verdict{}
	})
	r := sim.New(sim.Config{Seed: 1, Adversary: rec})
	all := make([]*Node, nodes)
	for i := range all {
		n, err := NewNode(Config{ID: types.NodeID(i), Nodes: nodes, Delta: 10, MaxSlot: maxSlot})
		if err != nil {
			tb.Fatal(err)
		}
		all[i] = n
		r.Add(n)
	}
	if err := r.Run(5000, nil); err != nil {
		tb.Fatal(err)
	}
	if got, want := all[0].FinalizedSlot(), maxSlot-3; got != want {
		tb.Fatalf("trace recording run finalized %d slots, want %d", got, want)
	}
	return msgs
}

// replay drives a fresh node through the recorded stream and returns it.
func replay(tb testing.TB, nodes int, maxSlot types.Slot, msgs []recordedMsg) *Node {
	tb.Helper()
	n, err := NewNode(Config{ID: 0, Nodes: nodes, Delta: 10, MaxSlot: maxSlot})
	if err != nil {
		tb.Fatal(err)
	}
	env := &recordEnv{loopback: n}
	n.Start(env)
	for _, m := range msgs {
		n.Deliver(env, m.from, m.msg)
	}
	return n
}

// BenchmarkMultishotDeliver measures the steady-state deliver path at n=16:
// one op replays a full recorded good-case pipeline stream (proposals and
// votes for 20 finalized slots) into a fresh node. Run with -benchmem; the
// allocs/op figure is the hot-path allocation budget the CI pin guards.
func BenchmarkMultishotDeliver(b *testing.B) {
	const nodes, maxSlot = 16, 23
	msgs := recordDeliveries(b, nodes, maxSlot)
	b.ReportMetric(float64(len(msgs)), "msgs/op")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := replay(b, nodes, maxSlot, msgs)
		if n.FinalizedSlot() != maxSlot-3 {
			b.Fatalf("replay finalized %d slots, want %d", n.FinalizedSlot(), maxSlot-3)
		}
	}
}

// TestDeliverAllocsBound pins the steady-state deliver path's allocation
// budget: the average allocations per delivered message across a full n=16
// pipeline replay (node setup amortized over the stream) must not regress.
// The CI perf job runs this by name.
func TestDeliverAllocsBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin needs an undisturbed heap")
	}
	const nodes, maxSlot = 16, 23
	msgs := recordDeliveries(t, nodes, maxSlot)
	perRun := testing.AllocsPerRun(10, func() {
		n := replay(t, nodes, maxSlot, msgs)
		if n.FinalizedSlot() != maxSlot-3 {
			t.Fatalf("replay finalized %d slots", n.FinalizedSlot())
		}
	})
	perMsg := perRun / float64(len(msgs))
	t.Logf("deliver path: %.0f allocs per replay, %.2f allocs per message (%d messages)", perRun, perMsg, len(msgs))
	// The map-of-maps bookkeeping once cost ~5 allocs per delivered message
	// at n=16; the flattened slot window measured 0.54 (node setup and the
	// per-slot proposal bodies, amortized), and converting each block ID to
	// its value once per node instead of once per vote phase brought that
	// to 0.31.
	const bound = 0.45
	if perMsg > bound {
		t.Errorf("deliver path allocates %.2f per message, budget %.2f", perMsg, bound)
	}
}

// TestOneValueStringPerBlock pins that a node converts a block ID to its
// consensus value once: every vote phase a slot records for the proposal it
// holds shares that proposal's string, not a copy of it. After a bounded
// n=16 replay the three tail slots stay unfinalized with vote-1, vote-1..2
// and vote-1..3 recorded for their proposals.
func TestOneValueStringPerBlock(t *testing.T) {
	const nodes, maxSlot = 16, 23
	n := replay(t, nodes, maxSlot, recordDeliveries(t, nodes, maxSlot))
	checked := 0
	for s := n.FinalizedSlot() + 1; s <= maxSlot; s++ {
		st := n.peekSlot(s)
		vr := st.recIf(0)
		if vr == nil || vr.prop == nil {
			t.Fatalf("slot %d holds no view-0 proposal", s)
		}
		for phase, v := range []types.VoteRef{st.votes.Vote1, st.votes.Vote2, st.votes.Vote3, st.votes.Vote4} {
			if !v.Valid {
				continue
			}
			if v.Val != vr.prop.value || unsafe.StringData(string(v.Val)) != unsafe.StringData(string(vr.prop.value)) {
				t.Errorf("slot %d vote-%d does not share the proposal's value string", s, phase+1)
			}
			checked++
		}
	}
	if checked != 6 {
		t.Errorf("checked %d recorded votes, want 6 (tail slots vote-1, vote-1..2, vote-1..3)", checked)
	}
}

// TestObsDisabledDeliverZeroAllocs is the observability overhead gate for
// the deliver path: with the metrics counters compiled in, a steady-state
// redundant delivery (a duplicate vote — tallies already hold it) must be
// 0 allocs/op both with metrics disabled (nil registry → nil counters) and
// enabled (resolved counters are bare atomics). The CI perf job runs this
// by name.
func TestObsDisabledDeliverZeroAllocs(t *testing.T) {
	const nodes, maxSlot = 4, 9
	msgs := recordDeliveries(t, nodes, maxSlot)
	for _, tc := range []struct {
		name    string
		metrics *obs.Registry
	}{{"disabled", nil}, {"enabled", obs.NewRegistry()}} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := NewNode(Config{ID: 0, Nodes: nodes, Delta: 10, MaxSlot: maxSlot, Metrics: tc.metrics})
			if err != nil {
				t.Fatal(err)
			}
			env := &recordEnv{loopback: n}
			n.Start(env)
			for _, m := range msgs {
				n.Deliver(env, m.from, m.msg)
			}
			var from types.NodeID
			var vote types.Message
			for i := len(msgs) - 1; i >= 0; i-- {
				if v, ok := msgs[i].msg.(types.MSVote); ok {
					from, vote = msgs[i].from, v
					break
				}
			}
			if vote == nil {
				t.Fatal("recorded stream carries no vote")
			}
			n.Deliver(env, from, vote) // warm: any one-time quorum edge fires here
			allocs := testing.AllocsPerRun(1000, func() {
				n.Deliver(env, from, vote)
			})
			if allocs != 0 {
				t.Errorf("steady-state deliver with %s metrics allocates %.2f times, want 0", tc.name, allocs)
			}
			if tc.metrics != nil {
				if got := tc.metrics.Counter("multishot_deliveries_total").Value(); got == 0 {
					t.Error("enabled registry counted no deliveries")
				}
			}
		})
	}
}

// TestDeliverAllocsReport prints the per-message allocation figure without
// enforcing a bound, for quick before/after comparisons at several sizes.
func TestDeliverAllocsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation report needs an undisturbed heap")
	}
	for _, nodes := range []int{4, 16} {
		const maxSlot = 23
		msgs := recordDeliveries(t, nodes, maxSlot)
		perRun := testing.AllocsPerRun(5, func() {
			replay(t, nodes, maxSlot, msgs)
		})
		t.Logf("n=%d: %.0f allocs per replay, %.2f per message (%d messages)",
			nodes, perRun, perRun/float64(len(msgs)), len(msgs))
	}
}
