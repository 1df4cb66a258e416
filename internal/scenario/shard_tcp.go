package scenario

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/shard"
	"tetrabft/internal/types"
)

// The TCP engine's part of a sharded run, which runTCP drives: the
// anchoring loop it starts for a sharded plan, the backend its HTTP gateway
// serves from, and RunWithGateway, which asks for the gateway.

// startAnchoring starts the anchoring loop of a sharded TCP run: a ticker
// goroutine performs an anchoring round every interval. stop ends the loop
// and waits for it; later calls return at once. One goroutine submits, so
// arrival times are ordered (the pool's contract).
func startAnchoring(r *tcpRun, dep *deployment, interval time.Duration) (stop func()) {
	quit, exited := make(chan struct{}), make(chan struct{})
	stop = sync.OnceFunc(func() {
		close(quit)
		<-exited
	})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
			}
			dep.round(types.Time(time.Since(r.start).Milliseconds()))
			r.wake()
		}
	}()
	return stop
}

// tcpGatewayBackend adapts the live clusters to the gateway's Backend
// interface. Submissions ride a shard replica's ordinary mempool (the next
// block it proposes carries them); queries replay the shard's decided log
// into a fresh KV.
type tcpGatewayBackend struct {
	shards []*tcpCluster
	anchor *tcpCluster
}

// Submit implements shard.Backend: the key picks a replica (spreading
// proposer load), whose mempool-backed payload source carries the
// transaction into its next proposal. A replica that is down proposes
// nothing — and one crashed for good never will — so the key goes to the
// next live replica instead.
func (b *tcpGatewayBackend) Submit(shardIdx int, key, value string) error {
	cl := b.shards[shardIdx]
	h := fnv.New32a()
	h.Write([]byte(key))
	n := len(cl.replicas)
	first := int(h.Sum32() % uint32(n))
	for i := range n {
		rep := cl.replicas[(first+i)%n]
		if _, rt := cl.live(rep); rt == nil {
			continue
		}
		if !rep.mempool.Submit(blockchain.SetTx(key, value)) {
			return fmt.Errorf("shard %d replica %d: mempool full", shardIdx, rep.id)
		}
		return nil
	}
	return fmt.Errorf("shard %d: no live replica", shardIdx)
}

// Query implements shard.Backend: snapshot the shard's decided log and
// replay the block payloads (gateway submissions) into a KV.
func (b *tcpGatewayBackend) Query(shardIdx int, key string) (string, bool, error) {
	chain, live := b.shards[shardIdx].refChain()
	if !live {
		return "", false, fmt.Errorf("shard %d: no live replica", shardIdx)
	}
	kv := blockchain.NewKV()
	for _, blk := range chain {
		kv.ApplyBlock(blk)
	}
	v, ok := kv.Get(key)
	return v, ok, nil
}

// Status implements shard.Backend.
func (b *tcpGatewayBackend) Status() shard.Status {
	st := shard.Status{AnchorFinalized: b.anchor.minFinalized()}
	anchorChain, _ := b.anchor.refChain()
	epochs, anchored := anchorProgress(anchorChain, len(b.shards))
	for i, cl := range b.shards {
		var txs int64
		chain, _ := cl.refChain()
		for _, blk := range chain {
			txs += int64(blk.NumTxs())
		}
		st.Shards = append(st.Shards, shard.ShardStatus{
			Shard: i, Finalized: cl.minFinalized(), DecidedTxs: txs,
			AnchoredSlots: anchored[i],
		})
		st.AnchorEpochs += epochs[i]
	}
	return st
}

// RunWithGateway runs a sharded EngineTCP scenario and passes the HTTP
// gateway's base URL to onReady once the service is accepting requests; the
// call then blocks until the run completes, exactly like Run. onReady runs
// on the engine's goroutine before the completion wait — it may spawn
// clients and return, or drive traffic inline (replica event loops make
// progress on their own goroutines).
func RunWithGateway(sc Scenario, onReady func(url string)) (*Result, error) {
	p, err := sc.compile()
	if err != nil {
		return nil, err
	}
	if sc.Shards == nil || sc.Engine != EngineTCP {
		return nil, fmt.Errorf("scenario: the gateway needs a sharded engine %q run", EngineTCP)
	}
	return runTCP(p, onReady)
}
