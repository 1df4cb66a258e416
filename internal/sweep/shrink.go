package sweep

import "tetrabft/internal/scenario"

// shrinkBudget caps how many candidate runs one shrink may spend. Each
// candidate is a full simulator run, so the cap bounds the cost of
// minimizing a pathological spec.
const shrinkBudget = 200

// shrink greedily minimizes a failing scenario: it tries a fixed order of
// simplifications — drop a fault, drop the mutation, shrink the cluster,
// shorten the workload, simplify the network — and keeps any candidate
// that still fails with the same kind, repeating until a full pass makes
// no progress. The result is a locally minimal reproducer: removing any
// single remaining ingredient makes the failure disappear (or the budget
// ran out first).
func shrink(sc scenario.Scenario, kind string) (scenario.Scenario, int) {
	steps, spent := 0, 0
	stillFails := func(cand scenario.Scenario) bool {
		if spent >= shrinkBudget {
			return false
		}
		if cand.Validate() != nil {
			return false
		}
		spent++
		k, _ := classify(cand)
		return k == kind
	}

	for {
		progressed := false
		attempt := func(cand scenario.Scenario) bool {
			if stillFails(cand) {
				sc = cand
				steps++
				progressed = true
				return true
			}
			return false
		}

		// Drop one fault-schedule entry at a time (highest index first, so
		// earlier drops do not shift the ones still to try).
		for i := len(sc.Faults) - 1; i >= 0; i-- {
			cand := sc
			cand.Faults = append(append([]scenario.FaultSpec(nil), sc.Faults[:i]...), sc.Faults[i+1:]...)
			attempt(cand)
		}

		// Drop the mutation: if the failure survives on the *correct*
		// protocol, the finding is a real protocol bug, which is strictly
		// more interesting.
		if sc.Mutation != scenario.MutationNone {
			cand := sc
			cand.Mutation = scenario.MutationNone
			attempt(cand)
		}

		// Sharded specs: first try losing the whole service layer — a
		// failure that survives on one flat cluster is strictly simpler.
		// The candidate keeps the multishot workload, unscopes shard
		// faults, and swaps the horizon-only stop for the flat default.
		if sc.Shards != nil {
			cand := sc
			cand.Shards = nil
			cand.Nodes = 4
			cand.Faults = append([]scenario.FaultSpec(nil), sc.Faults...)
			for i := range cand.Faults {
				cand.Faults[i].Shard = 0
			}
			attempt(cand)
		}
		// Failing that, fewer shards (clone the spec — candidates must not
		// share the pointer) and then the optional knobs back to defaults.
		// Validation rejects a count below a fault's shard scope.
		for sc.Shards != nil && sc.Shards.Count > 1 {
			cand := sc
			cp := *sc.Shards
			cp.Count--
			cand.Shards = &cp
			if !attempt(cand) {
				break
			}
		}
		if sc.Shards != nil && (sc.Shards.CrossMix != 0 || sc.Shards.AnchorInterval != 0) {
			cand := sc
			cp := *sc.Shards
			cp.CrossMix = 0
			cp.AnchorInterval = 0
			cand.Shards = &cp
			attempt(cand)
		}

		// Shrink the cluster one node at a time. Validation rejects
		// candidates whose faults or partitions name the removed node.
		for sc.Nodes > 4 {
			cand := sc
			cand.Nodes--
			if !attempt(cand) {
				break
			}
		}

		// Shorten the workload.
		for sc.Workload.Slots > 1 {
			cand := sc
			cand.Workload.Slots--
			if !attempt(cand) {
				break
			}
		}
		if sc.Workload.MaxSlot != 0 || len(sc.Workload.Transactions) > 0 {
			cand := sc
			cand.Workload.MaxSlot = 0
			cand.Workload.Transactions = nil
			attempt(cand)
		}
		// Drop the offered-load stream (batching and all) if the failure
		// does not need transactions in flight.
		if sc.Workload.TxCount != 0 || sc.Workload.TxRate != 0 || sc.Workload.BatchSize != 0 {
			cand := sc
			cand.Workload.TxCount = 0
			cand.Workload.TxRate = 0
			cand.Workload.BatchSize = 0
			cand.Workload.Window = 0
			attempt(cand)
		}

		// Simplify the network: drop the lossy prefix, then the delay
		// model (back to the unit-delay default).
		if sc.Network.GST != 0 || sc.Network.DropBeforeGST != 0 {
			cand := sc
			cand.Network.GST = 0
			cand.Network.DropBeforeGST = 0
			attempt(cand)
		}
		if sc.Network.Delay != nil {
			cand := sc
			cand.Network.Delay = nil
			attempt(cand)
		}

		// Drop explicit parameters back to their defaults.
		if sc.TimeoutFactor != 0 {
			cand := sc
			cand.TimeoutFactor = 0
			attempt(cand)
		}
		if sc.Delta != 0 {
			cand := sc
			cand.Delta = 0
			attempt(cand)
		}
		if sc.Seed > 1 {
			cand := sc
			cand.Seed = 1
			attempt(cand)
		}

		if !progressed || spent >= shrinkBudget {
			return sc, steps
		}
	}
}
