package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tetrabft/internal/multishot"
	"tetrabft/internal/types"
)

// mapDecisions is a map-backed decision store — one map per node, in member
// order — with the runner's getters and an agreement check written
// independently of the runner's slot walk: the oracle
// TestDecisionsMatchMapOracle holds the runner to.
type mapDecisions struct {
	ids []types.NodeID
	m   []map[types.Slot]Decision
}

func (o *mapDecisions) decide(i int, slot types.Slot, d Decision) {
	if o.m[i] == nil {
		o.m[i] = make(map[types.Slot]Decision, 8)
	}
	if _, already := o.m[i][slot]; already {
		return
	}
	o.m[i][slot] = d
}

func (o *mapDecisions) decidedCount(slot types.Slot) int {
	count := 0
	for _, m := range o.m {
		if _, ok := m[slot]; ok {
			count++
		}
	}
	return count
}

func (o *mapDecisions) agreementViolation() error {
	chosen := make(map[types.Slot]types.Value)
	owner := make(map[types.Slot]types.NodeID)
	var err error
	var low types.Slot
	for i, m := range o.m {
		for slot, d := range m {
			prev, ok := chosen[slot]
			switch {
			case !ok:
				chosen[slot], owner[slot] = d.Val, o.ids[i]
			case prev != d.Val && (err == nil || slot < low):
				low = slot
				err = fmt.Errorf("sim: agreement violated in slot %d: node %d decided %q, node %d decided %q",
					slot, owner[slot], prev, o.ids[i], d.Val)
			}
		}
	}
	return err
}

// TestDecisionsMatchMapOracle replays seeded random Decide sequences into a
// runner and into the map-backed oracle, and requires the same answers from
// Decision, DecidedCount and AgreementViolation (its text included: the
// lowest divergent slot, its first decider in member order). The slots mix
// slot 0, a multi-shot log with gaps, repeats (the first decision must win),
// negative slots and huge slots.
func TestDecisionsMatchMapOracle(t *testing.T) {
	ids := []types.NodeID{42, 7, 3, 11}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := New(Config{Seed: seed})
		o := &mapDecisions{ids: ids, m: make([]map[types.Slot]Decision, len(ids))}
		for _, id := range ids {
			r.Add(&sink{id: id})
		}
		slot := func() types.Slot {
			switch k := rng.Intn(20); {
			case k == 0:
				return 0
			case k == 1:
				return -types.Slot(1 + rng.Intn(3))
			case k == 2:
				return []types.Slot{math.MaxInt64, math.MinInt64, 1 << 40, 1 << 31, 1<<31 - 1}[rng.Intn(5)]
			case k == 3:
				return types.Slot(100 + rng.Intn(200)) // far ahead of a young log
			default:
				return types.Slot(1 + rng.Intn(1+int(seed%7)*40))
			}
		}
		var probes []types.Slot
		steps := rng.Intn(400)
		for step := 0; step < steps; step++ {
			i := rng.Intn(len(ids))
			s := slot()
			probes = append(probes, s)
			val := types.Value([]string{"a", "a", "a", "b", ""}[rng.Intn(5)])
			if seed%3 == 0 {
				val = types.Value(fmt.Sprintf("v%d", s)) // agreement holds
			}
			r.now = types.Time(step)
			r.envs[i].Decide(s, val)
			o.decide(i, s, Decision{Val: val, At: r.now})
		}
		probes = append(probes, 0, -1, 1, math.MaxInt64)

		for _, s := range probes {
			if got, want := r.DecidedCount(s), o.decidedCount(s); got != want {
				t.Fatalf("seed %d: DecidedCount(%d) = %d, oracle %d", seed, s, got, want)
			}
			for i, id := range ids {
				got, gotOK := r.Decision(id, s)
				want, wantOK := o.m[i][s]
				if got != want || gotOK != wantOK {
					t.Fatalf("seed %d: Decision(%d, %d) = %+v %v, oracle %+v %v", seed, id, s, got, gotOK, want, wantOK)
				}
			}
			if d, ok := r.Decision(99, s); ok {
				t.Fatalf("seed %d: unregistered node 99 decided %+v in slot %d", seed, d, s)
			}
		}
		got, want := r.AgreementViolation(), o.agreementViolation()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: AgreementViolation() = %v, oracle %v", seed, got, want)
		}
	}
}

// TestOnDecideTakesEveryDecision: with Config.OnDecide set, the hook sees
// every finalization of the n = 16, 240-slot pipeline — each replica's
// slots once each, in order, with its chain's values, at the runner's clock
// — and the runner records none: its getters report no decision.
func TestOnDecideTakesEveryDecision(t *testing.T) {
	const n, slots = 16, 240
	type seen struct {
		slot types.Slot
		val  types.Value
	}
	hooked := make(map[types.NodeID][]seen)
	var r *Runner
	r = New(Config{Seed: 1, OnDecide: func(node types.NodeID, slot types.Slot, val types.Value, at types.Time) {
		if at != r.Now() {
			t.Fatalf("node %d decided slot %d at %d, the clock reads %d", node, slot, at, r.Now())
		}
		hooked[node] = append(hooked[node], seen{slot, val})
	}})
	var nodes []*multishot.Node
	for i := 0; i < n; i++ {
		node, err := multishot.NewNode(multishot.Config{ID: types.NodeID(i), Nodes: n, Delta: 10, MaxSlot: slots + 3})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		r.Add(node)
	}
	if err := r.Run(0, func() bool {
		for _, node := range nodes {
			if node.FinalizedSlot() < slots {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, node := range nodes {
		chain, got := node.FinalizedChain(), hooked[node.ID()]
		if len(got) != len(chain) {
			t.Fatalf("node %d finalized %d slots, the hook saw %d", node.ID(), len(chain), len(got))
		}
		for i, b := range chain {
			if want := (seen{b.Slot, b.ID().Value()}); got[i] != want {
				t.Fatalf("node %d: decision %d is %+v, its chain says %+v", node.ID(), i, got[i], want)
			}
		}
		for s := types.Slot(0); s <= slots; s++ {
			if d, ok := r.Decision(node.ID(), s); ok {
				t.Fatalf("the runner recorded node %d's decision %+v of slot %d", node.ID(), d, s)
			}
		}
	}
	if got := r.DecidedCount(slots); got != 0 {
		t.Errorf("DecidedCount(%d) = %d with OnDecide set, want 0", slots, got)
	}
	if err := r.AgreementViolation(); err != nil {
		t.Errorf("AgreementViolation() = %v with OnDecide set, want nil", err)
	}
}
