package scenario

import (
	"bytes"
	"testing"
)

// FuzzParse hardens the spec decoder: arbitrary JSON must never panic, and
// any accepted spec must round-trip stably — marshal(parse(data)) parses
// again to the identical marshaled form. Unknown-field rejection is pinned
// by the seeded typo corpus (a misspelled field must stay an error).
func FuzzParse(f *testing.F) {
	for _, sc := range Named() {
		data, err := sc.MarshalIndent()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"nodes": 4, "protcol": "tetrabft"}`))
	f.Add([]byte(`{"nodes": 4, "faults": [{"type": "starve-decision", "to": 50}]}`))
	f.Add([]byte(`{"nodes": 4, "mutation": "skip-rule-3"}`))
	f.Add([]byte(`{`))
	// The size bounds, at and past each edge.
	f.Add([]byte(`{"nodes": 4096}`))
	f.Add([]byte(`{"nodes": 4097}`))
	f.Add([]byte(`{"nodes": 1000000000}`))
	f.Add([]byte(`{"protocol": "tetrabft-multi", "shards": {"count": 16, "nodes_per_shard": 255, "anchor_nodes": 16}, "workload": {"slots": 1}, "stop": {"horizon": 1}}`))
	f.Add([]byte(`{"protocol": "tetrabft-multi", "shards": {"count": 16, "nodes_per_shard": 256}, "workload": {"slots": 1}, "stop": {"horizon": 1}}`))
	f.Add([]byte(`{"protocol": "tetrabft-multi", "shards": {"count": 2, "nodes_per_shard": 1000000000, "anchor_nodes": 1000000000}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return // rejected input: only the no-panic guarantee applies
		}
		first, err := sc.MarshalIndent()
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		sc2, err := Parse(first)
		if err != nil {
			t.Fatalf("marshaled form of an accepted spec is rejected: %v\n%s", err, first)
		}
		second, err := sc2.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip is not a fixed point:\n%s\nvs\n%s", first, second)
		}
	})
}
