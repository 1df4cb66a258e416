package rbc

import (
	"math"
	"testing"

	"tetrabft/internal/sim"
	"tetrabft/internal/types"
)

func cluster(r *sim.Runner, n int, sender types.NodeID, val types.Value) {
	for i := 0; i < n; i++ {
		r.Add(&Node{NodeID: types.NodeID(i), Nodes: n, Sender: sender, Input: val})
	}
}

// TestGoodCaseThreeDelays: Bracha RBC delivers in exactly 3 message delays
// (init, echo, ready), the unauthenticated broadcast bound the paper cites
// from Abraham et al.
func TestGoodCaseThreeDelays(t *testing.T) {
	r := sim.New(sim.Config{Seed: 1})
	cluster(r, 4, 0, "hello")
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	for i := types.NodeID(0); i < 4; i++ {
		d, ok := r.Decision(i, 0)
		if !ok {
			t.Fatalf("node %d never delivered", i)
		}
		if d.Val != "hello" {
			t.Errorf("node %d delivered %q", i, d.Val)
		}
		if d.At != 3 {
			t.Errorf("node %d delivered at t=%d, want 3", i, d.At)
		}
	}
}

func TestSilentSenderDeliversNothing(t *testing.T) {
	r := sim.New(sim.Config{Seed: 1})
	cluster(r, 4, 99, "ghost") // sender 99 does not exist
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if r.DecidedCount(0) != 0 {
		t.Error("delivered without any init")
	}
}

// equivocator sends conflicting init messages to the two halves.
type equivocator struct{}

func (equivocator) Intercept(from, to types.NodeID, msg types.Message, _ types.Time) sim.Verdict {
	m, ok := msg.(types.GenericVote)
	if !ok || m.Phase != PhaseInit || from != 0 {
		return sim.Verdict{}
	}
	if to%2 == 1 {
		m.Val = "evil-twin"
		return sim.Verdict{Replace: m}
	}
	return sim.Verdict{}
}

// TestEquivocationBlocksDelivery: with the initial broadcast split between
// two values, no echo quorum forms and nothing is delivered — consistency
// is preserved by silence, which is the correct RBC behavior.
func TestEquivocationBlocksDelivery(t *testing.T) {
	r := sim.New(sim.Config{Seed: 1, Adversary: equivocator{}})
	cluster(r, 4, 0, "real")
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.DecidedCount(0); got != 0 {
		t.Errorf("%d nodes delivered despite an equivocating sender", got)
	}
	if err := r.AgreementViolation(); err != nil {
		t.Fatal(err)
	}
}

// echoSuppressor drops all echo messages addressed to node 3.
type echoSuppressor struct{}

func (echoSuppressor) Intercept(from, to types.NodeID, msg types.Message, _ types.Time) sim.Verdict {
	m, ok := msg.(types.GenericVote)
	if ok && m.Phase == PhaseEcho && to == 3 && from != to {
		return sim.Verdict{Drop: true}
	}
	return sim.Verdict{}
}

// TestReadyAmplification: a node that misses every echo still delivers via
// the f+1 ready amplification rule.
func TestReadyAmplification(t *testing.T) {
	r := sim.New(sim.Config{Seed: 1, Adversary: echoSuppressor{}})
	cluster(r, 4, 0, "amplified")
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	d, ok := r.Decision(3, 0)
	if !ok {
		t.Fatal("starved node never delivered")
	}
	if d.Val != "amplified" {
		t.Errorf("starved node delivered %q", d.Val)
	}
}

func TestForgedInitIgnored(t *testing.T) {
	// Node 1 sends an init claiming to be node 0's broadcast; origin
	// validation must drop it.
	r := sim.New(sim.Config{Seed: 1})
	r.Add(&forger{})
	for i := 1; i < 4; i++ {
		r.Add(&Node{NodeID: types.NodeID(i), Nodes: 4, Sender: 0, Input: "x"})
	}
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.DecidedCount(0); got != 0 {
		t.Errorf("%d nodes delivered a forged broadcast", got)
	}
}

// forger is node 0's identity thief: node 0 itself never inits, while the
// forged message comes from a different network peer.
type forger struct{}

func (forger) ID() types.NodeID { return 5 }
func (f *forger) Start(env types.Env) {
	env.Broadcast(types.GenericVote{Proto: types.ProtoRBC, Phase: PhaseInit, View: 0, Slot: 0, Val: "forged"})
}
func (forger) Deliver(types.Env, types.NodeID, types.Message) {}
func (forger) Tick(types.Env, types.TimerID)                  {}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(0, 0, types.ProtoRBC, nil); err == nil {
		t.Error("engine accepted n=0")
	}
}

func TestMultipleInstancesIndependent(t *testing.T) {
	// Two senders broadcast concurrently in different instances; both must
	// deliver to everyone.
	r := sim.New(sim.Config{Seed: 1})
	for i := 0; i < 4; i++ {
		r.Add(&dualNode{id: types.NodeID(i), n: 4})
	}
	if err := r.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	for i := types.NodeID(0); i < 4; i++ {
		if _, ok := r.Decision(i, 1); !ok {
			t.Errorf("node %d missed instance 1", i)
		}
		if _, ok := r.Decision(i, 2); !ok {
			t.Errorf("node %d missed instance 2", i)
		}
	}
}

type dualNode struct {
	id     types.NodeID
	n      int
	engine *Engine
}

func (d *dualNode) ID() types.NodeID { return d.id }

func (d *dualNode) Start(env types.Env) {
	engine, err := NewEngine(d.id, d.n, types.ProtoRBC, func(env types.Env, del Delivery) {
		env.Decide(del.Instance, del.Val)
	})
	if err != nil {
		panic(err)
	}
	d.engine = engine
	if d.id == 0 {
		d.engine.Broadcast(env, 1, "from-0")
	}
	if d.id == 1 {
		d.engine.Broadcast(env, 2, "from-1")
	}
}

func (d *dualNode) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	if m, ok := msg.(types.GenericVote); ok {
		d.engine.Handle(env, from, m)
	}
}

func (d *dualNode) Tick(types.Env, types.TimerID) {}

// TestOriginOfRejectsWideViews: an origin is read from a View only when the
// value is a NodeID. 1<<32+1 would alias member 1 where int is 32 bits wide.
func TestOriginOfRejectsWideViews(t *testing.T) {
	wide := math.MaxInt == math.MaxInt64
	for v, want := range map[types.View]bool{0: true, 3: true, -1: true, 1<<31 - 1: true, 1<<32 + 1: wide, math.MaxInt64: wide} {
		if id, ok := originOf(v); ok != want || (ok && types.View(id) != v) {
			t.Errorf("originOf(%d) = %d, %v, want ok %v", v, id, ok, want)
		}
	}
}
