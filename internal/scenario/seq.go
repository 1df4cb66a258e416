package scenario

import (
	"errors"
	"fmt"
	"slices"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/types"
)

// runSeq drives the PBFT and IT-HotStuff baselines at offered load by
// chaining single-shot instances: global slot s is an ordinary single-shot
// scenario (slotScenario) whose every node proposes the batch drained from
// the cluster's offered-load stream at the slot's start, and the decided
// batches fold into Result.Chain exactly as a multishot run would. Neither
// baseline has a native multi-shot mode (and IT-HotStuff repurposes the vote
// Slot field internally, so instances cannot be multiplexed inside one run);
// chaining whole runs on one virtual clock is the honest equivalent — every
// slot pays the protocol's full commit latency, which is precisely the
// difference the protocol shootout is measuring against the pipelined
// TetraBFT rows.
//
// The batch for slot s is drained once and proposed identically by
// whichever leader the view brings — modeling one shared mempool rather
// than competing per-leader pools — so a silent leader costs a view change
// but never loses transactions that were already proposed.
func runSeq(p *plan) (*Result, error) {
	c := p.clusters[0]
	dep := newDeployment(p)
	defer dep.stream.Close()
	load := dep.loads[0]
	load.SyncAll() // runSeq alone reads the stream: its length, lock-free
	res := &Result{Name: p.sc.Name, FirstDecisionAt: -1, OfferedTxs: len(load.At)}
	for _, m := range c.members {
		res.Traffic = append(res.Traffic, NodeTraffic{Node: m})
	}
	horizon := types.Time(p.sc.Stop.Horizon)
	var record commitRecord
	var chain []types.Block
	var offset types.Time

	for s := int64(0); s < p.sc.Workload.Slots && offset < horizon; s++ {
		txs := load.drain(offset, p.batchSize())
		batch := make([]blockchain.Tx, len(txs))
		for i, tx := range txs {
			batch[i] = tx
		}
		payload := string(blockchain.EncodePayload(batch))

		slot, err := Run(p.slotScenario(s, payload, horizon-offset))
		if err != nil {
			// Relabel the slot run's "scenario %q:" error with the slot.
			if inner := errors.Unwrap(err); inner != nil {
				err = inner
			}
			return res, fmt.Errorf("scenario %q slot %d: %w", p.sc.Name, s, err)
		}
		res.Events += slot.Events
		res.TotalSentBytes += slot.TotalSentBytes
		res.Dropped += slot.Dropped
		for i, tr := range slot.Traffic {
			res.Traffic[i].Sent += tr.Sent
			res.Traffic[i].Recv += tr.Recv
		}
		res.MaxStorageBytes = max(res.MaxStorageBytes, slot.MaxStorageBytes)
		res.MaxView = max(res.MaxView, slot.MaxView)
		if slot.DecidedCount < len(c.honest) {
			// Horizon exhausted mid-slot; the drained batch stays undecided
			// and shows up as backlog (OfferedTxs − DecidedTxs).
			offset = horizon
			break
		}

		for _, d := range slot.Decisions {
			record.decide(d.Node, types.Slot(s), d.Value, offset+types.Time(d.At))
		}
		res.FirstDecisionAt = record.at(0)
		// Txs is never nil here: an empty slot marshals as [], not null.
		chain = append(chain, types.Block{Slot: types.Slot(s), Payload: []byte(payload), Txs: append([][]byte{}, txs...)})

		// Advance the shared clock by the slot run's span. A zero-delay
		// regime can decide at t=0; count at least one tick per slot so the
		// clock (and the arrival gate) always moves.
		offset += max(types.Time(slot.FinishedAt), 1)
	}

	res.FinishedAt, res.LastDecisionAt = int64(offset), record.last
	if len(chain) > 0 {
		res.DecidedCount = len(c.honest)
	}
	for _, m := range c.honest {
		res.Finalized = append(res.Finalized, NodeSlot{Node: m, Slot: types.Slot(len(chain))})
	}
	return res, dep.fold(res, []foldInput{{chain: chain, commits: &record}}, nil, nil)
}

// slotScenario is global slot s of a chained baseline as an ordinary
// single-shot run of the underlying protocol: the cluster, delta, network
// regime and silent faults of the chained spec, every node proposing
// payload, a seed that folds in the slot (delay draws differ across slots
// but the whole run stays a pure function of spec and seed), and the shared
// clock's remaining budget as its horizon.
func (p *plan) slotScenario(s int64, payload string, remaining types.Time) Scenario {
	return Scenario{
		Name:          p.sc.Name,
		Protocol:      p.proto.Chains,
		Nodes:         p.sc.Nodes,
		Seed:          p.seed() + (s+1)<<20,
		Delta:         p.sc.Delta,
		TimeoutFactor: p.sc.TimeoutFactor,
		Network:       p.sc.Network,
		Faults:        p.sc.Faults,
		Workload:      WorkloadSpec{InitialValues: slices.Repeat([]string{payload}, p.sc.Nodes)},
		Stop:          StopSpec{Horizon: int64(remaining), AllDecided: true},
	}
}
