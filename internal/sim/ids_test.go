package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tetrabft/internal/types"
)

// echo replies to a proposal with a vote to its sender. The lead broadcasts
// one proposal at start, sends one message to an unregistered ID, and
// decides slot k when the vote from node k arrives.
type echo struct {
	id, lead, stray types.NodeID
}

func (e *echo) ID() types.NodeID { return e.id }

func (e *echo) Start(env types.Env) {
	if e.id == e.lead {
		env.Broadcast(types.Proposal{Val: "p"})
		env.Send(e.stray, types.ViewChange{View: 1})
	}
}

func (e *echo) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	switch msg.(type) {
	case types.Proposal:
		env.Send(from, types.VoteMsg{Phase: 1, Val: "v"})
	case types.VoteMsg:
		env.Decide(types.Slot(from), "v")
	}
}

func (e *echo) Tick(types.Env, types.TimerID) {}

// linkLog records the (from, to) pairs a callback was shown.
type linkLog []string

func (l *linkLog) note(from, to types.NodeID) { *l = append(*l, fmt.Sprintf("%d->%d", from, to)) }

func (l linkLog) sorted() []string { return slices.Sorted(slices.Values(l)) }

type loggingAdversary struct{ log *linkLog }

func (a loggingAdversary) Intercept(from, to types.NodeID, _ types.Message, _ types.Time) Verdict {
	a.log.note(from, to)
	return Verdict{}
}

type loggingDelay struct{ log *linkLog }

func (d loggingDelay) Delay(_ *rand.Rand, from, to types.NodeID) types.Duration {
	d.log.note(from, to)
	return 1
}

// TestNodeIDsAtTheAPI registers machines with non-contiguous IDs in
// non-sorted order (42, 7, 3), so a slot index mistaken for a NodeID, or the
// reverse, shows in every callback and getter.
func TestNodeIDsAtTheAPI(t *testing.T) {
	var adv, delay, watch linkLog
	r := New(Config{Seed: 1, Adversary: loggingAdversary{&adv}, Delay: loggingDelay{&delay}})
	r.Watch = func(from, to types.NodeID, _ types.Message, _ types.Time) { watch.note(from, to) }
	for _, id := range []types.NodeID{42, 7, 3} {
		r.Add(&echo{id: id, lead: 42, stray: 0})
	}
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}

	// The proposal to 42, 7 and 3, and one vote back from each. The stray
	// message to 0 is never shown to the adversary or delivered.
	want := []string{"3->42", "42->3", "42->42", "42->42", "42->7", "7->42"}
	if got := adv.sorted(); !slices.Equal(got, want) {
		t.Errorf("adversary saw %v, want %v", got, want)
	}
	if got := watch.sorted(); !slices.Equal(got, want) {
		t.Errorf("Watch saw %v, want %v", got, want)
	}
	if got, want := delay.sorted(), []string{"3->42", "42->3", "42->7", "7->42"}; !slices.Equal(got, want) {
		t.Errorf("delay model saw %v, want %v (self-delivery takes no delay)", got, want)
	}

	p := int64(types.EncodedSize(types.Proposal{Val: "p"}))
	v := int64(types.EncodedSize(types.VoteMsg{Phase: 1, Val: "v"}))
	x := int64(types.EncodedSize(types.ViewChange{View: 1}))
	for _, c := range []struct {
		id         types.NodeID
		sent, recv int64
	}{{42, 3*p + x + v, p + 3*v}, {7, v, p}, {3, v, p}, {0, 0, 0}, {1, 0, 0}} {
		if got := r.SentBytes(c.id); got != c.sent {
			t.Errorf("SentBytes(%d) = %d, want %d", c.id, got, c.sent)
		}
		if got := r.RecvBytes(c.id); got != c.recv {
			t.Errorf("RecvBytes(%d) = %d, want %d", c.id, got, c.recv)
		}
	}
	if got, want := r.TotalSentBytes(), 3*p+x+3*v; got != want {
		t.Errorf("TotalSentBytes = %d, want %d", got, want)
	}
	// The unregistered destination is billed to the sender and dropped.
	if got := r.sentMsgs[types.KindViewChange]; got != 1 {
		t.Errorf("view-change messages sent = %d, want 1", got)
	}
	if got := r.DroppedMessages(); got != 1 {
		t.Errorf("DroppedMessages = %d, want 1", got)
	}

	for _, e := range r.envs {
		if want := map[types.NodeID]int{42: 3}[e.self]; len(e.decisions) != want {
			t.Fatalf("node %d decided %d slots, want %d: node 42 alone, three slots", e.self, len(e.decisions), want)
		}
	}
	for _, from := range []types.NodeID{42, 7, 3} {
		if _, ok := r.Decision(42, types.Slot(from)); !ok {
			t.Errorf("Decision(42, %d) missing", from)
		}
	}
	for _, id := range []types.NodeID{7, 0, 2} {
		if d, ok := r.Decision(id, 42); ok {
			t.Errorf("Decision(%d, 42) = %+v, want none", id, d)
		}
	}
	if got := r.DecidedCount(7); got != 1 {
		t.Errorf("DecidedCount(7) = %d, want 1", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("a duplicate Add did not panic")
		}
	}()
	r.Add(&echo{id: 7})
}
