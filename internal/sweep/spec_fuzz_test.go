package sweep

import (
	"bytes"
	"testing"
)

// FuzzParseSweep hardens the sweep spec decoder the way FuzzParse hardens
// the scenario one: arbitrary JSON must never panic, and any accepted spec
// must round-trip to a fixed point.
func FuzzParseSweep(f *testing.F) {
	for _, sw := range Named() {
		data, err := sw.MarshalIndent()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"base": {"nodes": 4}, "axes": [{"field": "nodez", "ints": [4]}]}`))
	f.Add([]byte(`{"base": {"nodes": 4}, "axes": [{"field": "nodes", "floats": [0.5]}]}`))
	f.Add([]byte(`{"base": {"nodes": 4}, "assert": ["p99_latency <="]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data, Parse, Sweep.MarshalIndent)
	})
}

// FuzzParseCapacity holds the capacity plan decoder to the same
// guarantees as FuzzParseSweep.
func FuzzParseCapacity(f *testing.F) {
	for _, cp := range NamedCapacity() {
		data, err := cp.MarshalIndent()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"base": {"protocol": "tetrabft-multi", "nodes": 4}, "min_rate": 10, "max_rate": 5, "load_ticks": 100, "assert": ["max_backlog <= 0"]}`))
	f.Add([]byte(`{"base": {"nodes": 4}, "min_rate": 10, "max_rate": 20, "load_ticks": 100}`))
	f.Add([]byte(`{"min_rat": 10}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data, ParseCapacity, Capacity.MarshalIndent)
	})
}

// roundTrip checks one fuzz input: a rejected input only has to not panic;
// an accepted spec's marshaled form must parse again and marshal to the
// same bytes.
func roundTrip[T any](t *testing.T, data []byte, parse func([]byte) (T, error), marshal func(T) ([]byte, error)) {
	spec, err := parse(data)
	if err != nil {
		return
	}
	first, err := marshal(spec)
	if err != nil {
		t.Fatalf("accepted spec does not marshal: %v", err)
	}
	again, err := parse(first)
	if err != nil {
		t.Fatalf("marshaled form of an accepted spec is rejected: %v\n%s", err, first)
	}
	second, err := marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip is not a fixed point:\n%s\nvs\n%s", first, second)
	}
}
