package sim

import (
	"errors"
	"fmt"
	"testing"

	"tetrabft/internal/types"
)

// pinger broadcasts one proposal at start; every receiver replies with a
// vote; the pinger decides once it has seen quorum replies.
type pinger struct {
	id      types.NodeID
	n       int
	replies int
	isRoot  bool
	log     *[]string
}

func (p *pinger) ID() types.NodeID { return p.id }

func (p *pinger) Start(env types.Env) {
	if p.isRoot {
		env.Broadcast(types.Proposal{View: 0, Val: "ping"})
	}
}

func (p *pinger) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	if p.log != nil {
		*p.log = append(*p.log, fmt.Sprintf("%d<-%d %s@%d", p.id, from, msg.Kind(), env.Now()))
	}
	switch msg.(type) {
	case types.Proposal:
		env.Send(from, types.VoteMsg{Phase: 1, View: 0, Val: "pong"})
	case types.VoteMsg:
		p.replies++
		if p.replies == p.n {
			env.Decide(0, "done")
		}
	}
}

func (p *pinger) Tick(types.Env, types.TimerID) {}

func newPingCluster(r *Runner, n int, log *[]string) {
	for i := 0; i < n; i++ {
		r.Add(&pinger{id: types.NodeID(i), n: n, isRoot: i == 0, log: log})
	}
}

func TestUnitDelayLatency(t *testing.T) {
	r := New(Config{Seed: 1})
	newPingCluster(r, 4, nil)
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	d, ok := r.Decision(0, 0)
	if !ok {
		t.Fatal("root never decided")
	}
	// Proposal reaches peers at t=1 (self at t=0), replies at t=2 (self
	// reply at t=0). The last reply arrives at t=2.
	if d.At != 2 {
		t.Errorf("decision at t=%d, want 2", d.At)
	}
}

func TestDeterminism(t *testing.T) {
	trace := func(seed int64) []string {
		var log []string
		r := New(Config{Seed: seed, Delay: UniformDelay{Min: 1, Max: 5}})
		newPingCluster(r, 5, &log)
		if err := r.Run(0, nil); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := trace(42), trace(42)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedsDifferentSchedules(t *testing.T) {
	run := func(seed int64) types.Time {
		r := New(Config{Seed: seed, Delay: UniformDelay{Min: 1, Max: 50}})
		newPingCluster(r, 5, nil)
		if err := r.Run(0, nil); err != nil {
			t.Fatal(err)
		}
		d, _ := r.Decision(0, 0)
		return d.At
	}
	first := run(1)
	for seed := int64(2); seed < 20; seed++ {
		if run(seed) != first {
			return // found variation, as expected
		}
	}
	t.Error("20 seeds produced identical decision times under a wide uniform delay")
}

func TestTimerOrdering(t *testing.T) {
	fired := []types.TimerID{}
	m := &timerMachine{fired: &fired}
	r := New(Config{Seed: 1})
	r.Add(m)
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	want := []types.TimerID{3, 1, 2}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

type timerMachine struct {
	fired *[]types.TimerID
}

func (m *timerMachine) ID() types.NodeID { return 0 }

func (m *timerMachine) Start(env types.Env) {
	env.SetTimer(1, 10)
	env.SetTimer(2, 20)
	env.SetTimer(3, 5)
}

func (m *timerMachine) Deliver(types.Env, types.NodeID, types.Message) {}

func (m *timerMachine) Tick(_ types.Env, id types.TimerID) {
	*m.fired = append(*m.fired, id)
}

func TestPreGSTDropsAndPostGSTDelivery(t *testing.T) {
	// With DropBeforeGST = 1 every pre-GST message is lost; the root's
	// proposal at t=0 vanishes, so no non-root node ever replies.
	r := New(Config{Seed: 7, GST: 100, DropBeforeGST: 1})
	newPingCluster(r, 4, nil)
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, decided := r.Decision(0, 0); decided {
		t.Error("decided even though every pre-GST message was dropped")
	}
	if r.DroppedMessages() == 0 {
		t.Error("no messages recorded as dropped")
	}
}

func TestPreGSTSurvivorsArriveAfterGST(t *testing.T) {
	// No drops: pre-GST messages survive but arrive no earlier than GST.
	var log []string
	r := New(Config{Seed: 7, GST: 100})
	newPingCluster(r, 2, &log)
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	want := "1<-0 proposal@101"
	found := false
	for _, line := range log {
		if line == want {
			found = true
		}
	}
	if !found {
		t.Errorf("log %v missing %q", log, want)
	}
}

type dropAdversary struct {
	target types.NodeID
}

func (d dropAdversary) Intercept(_, to types.NodeID, _ types.Message, _ types.Time) Verdict {
	return Verdict{Drop: to == d.target}
}

func TestAdversaryDrop(t *testing.T) {
	r := New(Config{Seed: 1, Adversary: dropAdversary{target: 1}})
	newPingCluster(r, 4, nil)
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	// Node 1 never receives the proposal (even self-sends are filtered by
	// the adversary), so the root collects only 3 of 4 replies.
	if _, decided := r.Decision(0, 0); decided {
		t.Error("root decided despite the adversary silencing node 1")
	}
}

type mutateAdversary struct{}

func (mutateAdversary) Intercept(from, to types.NodeID, msg types.Message, _ types.Time) Verdict {
	if v, ok := msg.(types.VoteMsg); ok && from == 2 {
		v.Val = "forged"
		return Verdict{Replace: v}
	}
	return Verdict{}
}

func TestAdversaryMutate(t *testing.T) {
	var log []string
	r := New(Config{Seed: 1, Adversary: mutateAdversary{}})
	newPingCluster(r, 3, &log)
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	// The run must still complete; the mutation only changes payloads.
	if _, decided := r.Decision(0, 0); !decided {
		t.Error("root did not decide")
	}
}

func TestAgreementViolationDetection(t *testing.T) {
	r := New(Config{Seed: 1})
	r.Add(&decider{id: 0, val: "a"})
	r.Add(&decider{id: 1, val: "b"})
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AgreementViolation(); err == nil {
		t.Error("conflicting decisions not detected")
	}

	r2 := New(Config{Seed: 1})
	r2.Add(&decider{id: 0, val: "a"})
	r2.Add(&decider{id: 1, val: "a"})
	if err := r2.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := r2.AgreementViolation(); err != nil {
		t.Errorf("false agreement violation: %v", err)
	}
}

// TestAgreementViolationDeterministic builds divergences in several slots,
// spread over several nodes, and requires one report on every call: the
// lowest divergent slot (9), its first decider in member order (node 0) and
// the first later member that decided otherwise (node 2, not node 3).
func TestAgreementViolationDeterministic(t *testing.T) {
	r := New(Config{Seed: 1})
	diverge := map[types.NodeID][]types.Slot{2: {9, 30, 41, 57}, 3: {9, 12, 20, 64}}
	for id := types.NodeID(0); id < 4; id++ {
		r.Add(&slotDecider{id: id, slots: 80, diverge: diverge[id]})
	}
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	const want = `sim: agreement violated in slot 9: node 0 decided "v9", node 2 decided "x9-2"`
	for i := 0; i < 100; i++ {
		err := r.AgreementViolation()
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: AgreementViolation() = %v, want %s", i, err, want)
		}
	}
}

// slotDecider decides slots 0..slots-1 at start: "v<slot>", except "x<slot>-<id>"
// in the diverge slots.
type slotDecider struct {
	id      types.NodeID
	slots   types.Slot
	diverge []types.Slot
}

func (d *slotDecider) ID() types.NodeID { return d.id }
func (d *slotDecider) Start(env types.Env) {
	for _, s := range d.diverge { // first: decisions are final
		env.Decide(s, types.Value(fmt.Sprintf("x%d-%d", s, d.id)))
	}
	for s := types.Slot(0); s < d.slots; s++ {
		env.Decide(s, types.Value(fmt.Sprintf("v%d", s)))
	}
}
func (d *slotDecider) Deliver(types.Env, types.NodeID, types.Message) {}
func (d *slotDecider) Tick(types.Env, types.TimerID)                  {}

type decider struct {
	id  types.NodeID
	val types.Value
}

func (d *decider) ID() types.NodeID                               { return d.id }
func (d *decider) Start(env types.Env)                            { env.Decide(0, d.val) }
func (d *decider) Deliver(types.Env, types.NodeID, types.Message) {}
func (d *decider) Tick(types.Env, types.TimerID)                  {}

func TestDecisionIsFinal(t *testing.T) {
	r := New(Config{Seed: 1})
	r.Add(&redecider{})
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	d, ok := r.Decision(0, 0)
	if !ok || d.Val != "first" {
		t.Errorf("decision = %+v, want first", d)
	}
}

type redecider struct{}

func (d *redecider) ID() types.NodeID { return 0 }
func (d *redecider) Start(env types.Env) {
	env.Decide(0, "first")
	env.Decide(0, "second")
}
func (d *redecider) Deliver(types.Env, types.NodeID, types.Message) {}
func (d *redecider) Tick(types.Env, types.TimerID)                  {}

func TestByteAccounting(t *testing.T) {
	r := New(Config{Seed: 1})
	newPingCluster(r, 4, nil)
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	proposalSize := int64(types.EncodedSize(types.Proposal{View: 0, Val: "ping"}))
	voteSize := int64(types.EncodedSize(types.VoteMsg{Phase: 1, View: 0, Val: "pong"}))
	// Root broadcasts one proposal to 4 nodes and replies (to itself) once.
	wantRoot := 4*proposalSize + voteSize
	if got := r.SentBytes(0); got != wantRoot {
		t.Errorf("root sent %d bytes, want %d", got, wantRoot)
	}
	if got := r.TotalSentBytes(); got != wantRoot+3*voteSize {
		t.Errorf("total sent %d, want %d", got, wantRoot+3*voteSize)
	}
	if got := r.sentMsgs[types.KindVote]; got != 4 {
		t.Errorf("vote count = %d, want 4", got)
	}
}

func TestEventBudget(t *testing.T) {
	r := New(Config{Seed: 1, EventBudget: 10})
	r.Add(&storm{})
	err := r.Run(0, nil)
	if !errors.Is(err, ErrEventBudget) {
		t.Errorf("err = %v, want ErrEventBudget", err)
	}
}

// storm endlessly messages itself.
type storm struct{}

func (s *storm) ID() types.NodeID    { return 0 }
func (s *storm) Start(env types.Env) { env.Send(0, types.ViewChange{View: 1}) }
func (s *storm) Deliver(env types.Env, _ types.NodeID, _ types.Message) {
	env.Send(0, types.ViewChange{View: 1})
}
func (s *storm) Tick(types.Env, types.TimerID) {}

func TestRunHorizonStopsEarly(t *testing.T) {
	fired := []types.TimerID{}
	r := New(Config{Seed: 1})
	r.Add(&slowTimer{fired: &fired})
	if err := r.Run(50, nil); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 0 {
		t.Errorf("timer beyond the horizon fired: %v", fired)
	}
}

type slowTimer struct{ fired *[]types.TimerID }

func (s *slowTimer) ID() types.NodeID                               { return 0 }
func (s *slowTimer) Start(env types.Env)                            { env.SetTimer(1, 1000) }
func (s *slowTimer) Deliver(types.Env, types.NodeID, types.Message) {}
func (s *slowTimer) Tick(_ types.Env, id types.TimerID)             { *s.fired = append(*s.fired, id) }

func TestStopPredicate(t *testing.T) {
	r := New(Config{Seed: 1})
	newPingCluster(r, 4, nil)
	stopped := false
	err := r.Run(0, func() bool {
		if r.Now() >= 1 {
			stopped = true
			return true
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Error("stop predicate never honored")
	}
}

func TestSendToUnknownNodeIsDropped(t *testing.T) {
	r := New(Config{Seed: 1})
	r.Add(&strayer{})
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if r.DroppedMessages() != 1 {
		t.Errorf("dropped = %d, want 1", r.DroppedMessages())
	}
}

type strayer struct{}

func (s *strayer) ID() types.NodeID                               { return 0 }
func (s *strayer) Start(env types.Env)                            { env.Send(99, types.ViewChange{View: 1}) }
func (s *strayer) Deliver(types.Env, types.NodeID, types.Message) {}
func (s *strayer) Tick(types.Env, types.TimerID)                  {}
