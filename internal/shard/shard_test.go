package shard

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"tetrabft/internal/types"
)

// The router must be deterministic, total over [0, S), and actually spread
// keys (a constant router would serialize the whole service through one
// shard).
func TestRouterSpreadsAndPins(t *testing.T) {
	r := Router{Shards: 4}
	hits := make([]int, 4)
	for i := 0; i < 1000; i++ {
		key := string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+i%13))
		s := r.Shard(key)
		if s < 0 || s >= 4 {
			t.Fatalf("key %q routed outside [0,4): %d", key, s)
		}
		if again := r.Shard(key); again != s {
			t.Fatalf("key %q routed to %d then %d", key, s, again)
		}
		hits[s]++
	}
	for s, n := range hits {
		if n == 0 {
			t.Fatalf("shard %d received no keys: %v", s, hits)
		}
	}
	if (Router{Shards: 1}).Shard("anything") != 0 {
		t.Fatal("single-shard router must route everything to shard 0")
	}
}

func testChain(n int) []types.Block {
	chain := make([]types.Block, n)
	parent := types.ZeroBlockID
	for i := range chain {
		chain[i] = types.Block{Slot: types.Slot(i + 1), Parent: parent, Payload: []byte{byte(i)}}
		parent = chain[i].ID()
	}
	return chain
}

func TestPrefixDigest(t *testing.T) {
	chain := testChain(6)
	d4 := PrefixDigest(chain, 4)
	// The digest covers exactly the prefix: extending the chain must not
	// change it, and any change inside the prefix must.
	if got := PrefixDigest(chain[:4], 4); got != d4 {
		t.Fatal("digest of a prefix must not depend on blocks past k")
	}
	if PrefixDigest(chain, 5) == d4 {
		t.Fatal("digests of different prefix lengths must differ")
	}
	mutated := append([]types.Block(nil), chain...)
	mutated[2].Payload = []byte("tampered")
	if PrefixDigest(mutated, 4) == d4 {
		t.Fatal("a tampered block inside the prefix must change the digest")
	}
	// k beyond the chain clamps (a shard can only digest what it decided).
	if PrefixDigest(chain, 100) != PrefixDigest(chain, 6) {
		t.Fatal("k past the chain end must clamp to the full chain")
	}
}

func TestVerifyAnchors(t *testing.T) {
	chains := [][]types.Block{testChain(5), testChain(3)}
	anchorTx := func(s int, e, k int64) []byte {
		return Anchor{Shard: s, Epoch: e, Slots: k, Digest: PrefixDigest(chains[s], int(k))}.Encode()
	}
	anchorChain := []types.Block{
		{Slot: 1, Txs: [][]byte{anchorTx(0, 1, 2), []byte("otx-00000007")}},
		{Slot: 2, Txs: [][]byte{anchorTx(1, 1, 3), anchorTx(0, 2, 5)}},
	}
	epochs, anchored, err := VerifyAnchors(anchorChain, chains)
	if err != nil {
		t.Fatal(err)
	}
	if epochs[0] != 2 || epochs[1] != 1 || anchored[0] != 5 || anchored[1] != 3 {
		t.Fatalf("epochs %v anchored %v", epochs, anchored)
	}

	bad := Anchor{Shard: 0, Epoch: 1, Slots: 2, Digest: [32]byte{0xde, 0xad}}
	for name, chain := range map[string][]types.Block{
		"epoch skip":      {{Slot: 1, Txs: [][]byte{anchorTx(0, 2, 2)}}},
		"epoch repeat":    {{Slot: 1, Txs: [][]byte{anchorTx(0, 1, 2), anchorTx(0, 1, 3)}}},
		"beyond decided":  {{Slot: 1, Txs: [][]byte{Anchor{Shard: 1, Epoch: 1, Slots: 9, Digest: PrefixDigest(chains[1], 9)}.Encode()}}},
		"digest mismatch": {{Slot: 1, Txs: [][]byte{bad.Encode()}}},
		"unknown shard":   {{Slot: 1, Txs: [][]byte{Anchor{Shard: 5, Epoch: 1, Slots: 1, Digest: PrefixDigest(chains[0], 1)}.Encode()}}},
		"malformed":       {{Slot: 1, Txs: [][]byte{[]byte("anchor|garbage")}}},
	} {
		_, _, err := VerifyAnchors(chain, chains)
		switch lost := errors.Is(err, ErrAnchorLost); {
		case err == nil:
			t.Errorf("%s: VerifyAnchors accepted a bad anchor chain", name)
		case lost != (name == "epoch skip"):
			t.Errorf("%s: errors.Is(%q, ErrAnchorLost) = %v: only an epoch gap is a lost anchor", name, err, lost)
		}
	}
}

// verifyAnchorsOracle is VerifyAnchors as it stood before its digests ran:
// every anchor re-hashes its prefix from slot 1 with PrefixDigest.
func verifyAnchorsOracle(anchorChain []types.Block, shardChains [][]types.Block) (epochs, anchoredSlots []int64, err error) {
	epochs = make([]int64, len(shardChains))
	anchoredSlots = make([]int64, len(shardChains))
	for _, b := range anchorChain {
		for _, tx := range b.Txs {
			if !bytes.HasPrefix(tx, []byte(anchorPrefix)) {
				continue
			}
			a, ok := DecodeAnchor(tx)
			if !ok {
				return nil, nil, fmt.Errorf("shard: anchor slot %d carries a malformed anchor transaction %q", b.Slot, tx)
			}
			if a.Shard >= len(shardChains) {
				return nil, nil, fmt.Errorf("shard: anchor names unknown shard %d (have %d)", a.Shard, len(shardChains))
			}
			if a.Epoch != epochs[a.Shard]+1 {
				return nil, nil, fmt.Errorf("shard: shard %d anchored epoch %d after epoch %d (epochs must advance by one)", a.Shard, a.Epoch, epochs[a.Shard])
			}
			chain := shardChains[a.Shard]
			if a.Slots > int64(len(chain)) {
				return nil, nil, fmt.Errorf("shard: shard %d anchored %d slots but decided only %d", a.Shard, a.Slots, len(chain))
			}
			if got := PrefixDigest(chain, int(a.Slots)); got != a.Digest {
				return nil, nil, fmt.Errorf("shard: shard %d epoch %d digest mismatch over %d slots (anchored history diverges from the decided log)", a.Shard, a.Epoch, a.Slots)
			}
			epochs[a.Shard] = a.Epoch
			if a.Slots > anchoredSlots[a.Shard] {
				anchoredSlots[a.Shard] = a.Slots
			}
		}
	}
	return epochs, anchoredSlots, nil
}

// TestVerifyAnchorsMatchesOracle: on random anchor chains — prefixes that
// grow, shrink or repeat, skipped and repeated epochs, wrong digests,
// claims past the decided log, unknown shards and malformed anchors —
// VerifyAnchors, which digests each shard's chain forward, gives the
// re-hashing oracle's verdict, results and error text.
func TestVerifyAnchorsMatchesOracle(t *testing.T) {
	chains := [][]types.Block{testChain(40), testChain(25), testChain(3)}
	rng := rand.New(rand.NewPCG(1, 2))
	verdicts := make(map[string]int)
	for trial := range 3000 {
		next := make([]int64, len(chains)+1) // the epoch each shard claims next
		var anchorChain []types.Block
		for slot := range 1 + rng.IntN(6) {
			b := types.Block{Slot: types.Slot(slot + 1)}
			for range rng.IntN(4) {
				switch rng.IntN(100) {
				case 0:
					b.Txs = append(b.Txs, []byte("anchor|s=x"))
					continue
				case 1, 2, 3, 4, 5:
					b.Txs = append(b.Txs, []byte("otx-1"))
					continue
				}
				s := rng.IntN(len(chains))
				if rng.IntN(100) == 0 {
					s = len(chains)
				}
				next[s]++
				a := Anchor{Shard: s, Epoch: next[s], Slots: 1 + rng.Int64N(int64(len(chains[s%len(chains)])))}
				if rng.IntN(100) == 0 {
					a.Epoch++
				}
				if rng.IntN(100) == 0 {
					a.Slots += 2
				}
				a.Digest = PrefixDigest(chains[s%len(chains)], int(a.Slots))
				if rng.IntN(100) == 0 {
					a.Digest[0] ^= 1
				}
				b.Txs = append(b.Txs, a.Encode())
			}
			anchorChain = append(anchorChain, b)
		}
		epochs, anchored, err := VerifyAnchors(anchorChain, chains)
		wantEpochs, wantAnchored, wantErr := verifyAnchorsOracle(anchorChain, chains)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || fmt.Sprint(epochs, anchored) != fmt.Sprint(wantEpochs, wantAnchored) {
			t.Fatalf("trial %d: VerifyAnchors = %v %v %v, oracle %v %v %v", trial, epochs, anchored, err, wantEpochs, wantAnchored, wantErr)
		}
		verdict := "ok"
		for _, v := range []string{"malformed", "unknown", "epochs must", "decided only", "mismatch"} {
			if err != nil && strings.Contains(err.Error(), v) {
				verdict = v
			}
		}
		verdicts[verdict]++
	}
	for _, v := range []string{"ok", "malformed", "unknown", "epochs must", "decided only", "mismatch"} {
		if verdicts[v] == 0 {
			t.Errorf("no trial reached the %q verdict: %v", v, verdicts)
		}
	}
}

func TestAnchorRoundTrip(t *testing.T) {
	a := Anchor{Shard: 3, Epoch: 7, Slots: 12, Digest: PrefixDigest(testChain(12), 12)}
	tx := a.Encode()
	if !bytes.HasPrefix(tx, []byte("anchor|")) {
		t.Fatalf("anchor payload %q must carry the anchor| tag", tx)
	}
	got, ok := DecodeAnchor(tx)
	if !ok || got != a {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, a)
	}
	for _, bad := range [][]byte{
		[]byte("otx-00000001"),             // ordinary offered-load tx
		[]byte("anchor|s=1|e=0|k=3|d=ab"),  // epoch < 1
		[]byte("anchor|s=1|e=2|k=0|d=ab"),  // empty prefix
		[]byte("anchor|s=1|e=2|k=3|d=zz"),  // non-hex digest
		[]byte("anchor|s=1|e=2|k=3|d=abc"), // truncated digest
		nil,
	} {
		if _, ok := DecodeAnchor(bad); ok {
			t.Fatalf("DecodeAnchor(%q) must fail", bad)
		}
	}
}

// TestDecodeAnchorRejectsNonCanonical feeds DecodeAnchor other spellings of a
// valid anchor: a lenient scanner reads each as that anchor, but only the
// exact bytes Encode produces are one.
func TestDecodeAnchorRejectsNonCanonical(t *testing.T) {
	a := Anchor{Shard: 0, Epoch: 1, Slots: 3, Digest: PrefixDigest(testChain(3), 3)}
	digest := hex.EncodeToString(a.Digest[:])
	if got, ok := DecodeAnchor(a.Encode()); !ok || got != a {
		t.Fatalf("canonical anchor: got %+v ok=%v, want %+v", got, ok, a)
	}
	for _, tc := range []struct{ name, tx string }{
		{"sign and leading zero", "anchor|s=+0|e=01|k=3|d=" + digest},
		{"trailing word", string(a.Encode()) + " trailing"},
		{"upper-case digest", "anchor|s=0|e=1|k=3|d=" + strings.ToUpper(digest)},
		{"trailing line", string(a.Encode()) + "\nx"},
	} {
		if got, ok := DecodeAnchor([]byte(tc.tx)); ok {
			t.Errorf("%s: DecodeAnchor(%q) accepted %+v", tc.name, tc.tx, got)
		}
	}
}

// FuzzDecodeAnchor faces DecodeAnchor with arbitrary transaction payloads —
// the anchor fold reads every transaction the anchor cluster decided. It
// never panics, and whatever it accepts is canonical: Encode of the decoded
// anchor gives back the input byte for byte.
func FuzzDecodeAnchor(f *testing.F) {
	for _, a := range []Anchor{
		{Shard: 0, Epoch: 1, Slots: 1},
		{Shard: 3, Epoch: 7, Slots: 12, Digest: PrefixDigest(testChain(12), 12)},
		{Shard: 15, Epoch: 1 << 40, Slots: 1 << 33, Digest: [32]byte{0xff, 1, 2}},
	} {
		f.Add(a.Encode())
	}
	f.Add([]byte("otx-00000001"))
	f.Add([]byte("k=v"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, tx []byte) {
		a, ok := DecodeAnchor(tx)
		if ok && !bytes.Equal(a.Encode(), tx) {
			t.Fatalf("DecodeAnchor(%q) accepted %+v, which encodes as %q", tx, a, a.Encode())
		}
	})
}
