package sim

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tetrabft/internal/types"
)

// mapDecisions is the decision store the runner kept before decisionLog —
// one map per node, in member order — with its getters and its agreement
// check verbatim: the oracle TestDecisionsMatchMapOracle holds the runner to.
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

func (o *mapDecisions) decisions() map[types.NodeID]map[types.Slot]Decision {
	out := make(map[types.NodeID]map[types.Slot]Decision, len(o.ids))
	for i, id := range o.ids {
		if o.m[i] != nil {
			out[id] = maps.Clone(o.m[i])
		}
	}
	return out
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
// runner and into the map-backed store it replaced, and requires the same
// answers from Decision, DecidedCount, Decisions and AgreementViolation (its
// text included), and the oracle's slots, sorted, from NodeDecisions. The
// slots mix slot 0, a dense multi-shot log with gaps, repeats (the first
// decision must win), negative slots, huge slots far past the dense bound,
// and slots decided while past the bound that the dense range later covers.
func TestDecisionsMatchMapOracle(t *testing.T) {
	ids := []types.NodeID{42, 7, 3, 11}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := New(Config{Seed: seed})
		o := &mapDecisions{ids: ids, m: make([]map[types.Slot]Decision, len(ids))}
		for _, id := range ids {
			r.Add(&sink{id: id})
		}
		slot := func(i int) types.Slot {
			switch k := rng.Intn(20); {
			case k == 0:
				return 0
			case k == 1:
				return -types.Slot(1 + rng.Intn(3))
			case k == 2:
				return []types.Slot{math.MaxInt64, math.MinInt64, 1 << 40, 1 << 31, 1<<31 - 1}[rng.Intn(5)]
			case k == 3:
				// At or just past the dense bound of node i right now.
				l := &r.envs[i].decisions
				return types.Slot((2*l.count/pageCells+1)*pageCells + rng.Intn(3) - 1)
			case k == 4:
				return types.Slot(100 + rng.Intn(200)) // far ahead of a young log
			default:
				return types.Slot(1 + rng.Intn(1+int(seed%7)*40))
			}
		}
		var probes []types.Slot
		steps := rng.Intn(400)
		for step := 0; step < steps; step++ {
			i := rng.Intn(len(ids))
			s := slot(i)
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
		if got, want := r.Decisions(), o.decisions(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Decisions() = %v, oracle %v", seed, got, want)
		}
		for i, id := range ids {
			var got []types.Slot
			for s, d := range r.NodeDecisions(id) {
				if d != o.m[i][s] {
					t.Fatalf("seed %d: NodeDecisions(%d) yields %+v for slot %d, oracle %+v", seed, id, d, s, o.m[i][s])
				}
				got = append(got, s)
			}
			if want := slices.Sorted(maps.Keys(o.m[i])); !slices.Equal(got, want) {
				t.Fatalf("seed %d: NodeDecisions(%d) slots %v, want %v", seed, id, got, want)
			}
		}
		got, want := r.AgreementViolation(), o.agreementViolation()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: AgreementViolation() = %v, oracle %v", seed, got, want)
		}
		for i := range ids {
			if l := &r.envs[i].decisions; len(l.dense)*pageCells > 2*l.count+denseSlack {
				t.Fatalf("seed %d: node %d keeps %d dense cells for %d decisions", seed, ids[i], len(l.dense)*pageCells, l.count)
			}
		}
	}
}

// TestNodeDecisionsStopsEarly: breaking out of the iteration stops it, in the
// dense and in the sparse part.
func TestNodeDecisionsStopsEarly(t *testing.T) {
	r := New(Config{Seed: 1})
	r.Add(&sink{id: 5})
	for _, s := range []types.Slot{-4, -2, 1, 2, 3, 1 << 50, 1 << 51} {
		r.envs[0].Decide(s, "v")
	}
	for n := 0; n <= 7; n++ {
		var got []types.Slot
		for s := range r.NodeDecisions(5) {
			if len(got) == n {
				break
			}
			got = append(got, s)
		}
		if want := []types.Slot{-4, -2, 1, 2, 3, 1 << 50, 1 << 51}[:n]; !slices.Equal(got, want) {
			t.Fatalf("stop after %d: got %v, want %v", n, got, want)
		}
	}
}

// TestDecisionLogNeverMovesACell: a node logging a 2,100-slot multishot
// run's decisions, slot by slot, never copies a decided cell (every cell
// stays at the address it was written to), and keeps them in at most
// 2,100 + pageCells cells.
func TestDecisionLogNeverMovesACell(t *testing.T) {
	const slots = 2100
	var l decisionLog
	cells := make([]*denseDecision, slots+1)
	for s := types.Slot(1); s <= slots; s++ {
		l.put(s, Decision{Val: "v", At: types.Time(s)})
		if cells[s] = l.cell(s); cells[s] == nil || !cells[s].set {
			t.Fatalf("slot %d is not in the dense pages", s)
		}
	}
	for s := types.Slot(1); s <= slots; s++ {
		if c := l.cell(s); c != cells[s] || c.At != types.Time(s) {
			t.Fatalf("slot %d's cell moved, or changed, after it was decided", s)
		}
	}
	if len(l.sparse) != 0 || len(l.dense)*pageCells > slots+pageCells {
		t.Fatalf("%d sparse decisions, %d dense cells for %d slots", len(l.sparse), len(l.dense)*pageCells, slots)
	}
}
