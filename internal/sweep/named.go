package sweep

import "tetrabft/examples"

// Named returns the bundled sweep library, one grid per file of
// examples/sweeps in file-name order. Each call returns fresh values, safe
// to mutate.
func Named() []Sweep { return examples.Load("sweeps", Parse) }

// ByName returns the bundled sweep with the given name.
func ByName(name string) (Sweep, bool) {
	for _, sw := range Named() {
		if sw.Name == name {
			return sw, true
		}
	}
	return Sweep{}, false
}

// NamedCapacity returns the bundled capacity plans, one per file of
// examples/capacity in file-name order. Each call returns fresh values,
// safe to mutate.
func NamedCapacity() []Capacity { return examples.Load("capacity", ParseCapacity) }

// CapacityByName returns the bundled capacity plan with the given name.
func CapacityByName(name string) (Capacity, bool) {
	for _, cp := range NamedCapacity() {
		if cp.Name == name {
			return cp, true
		}
	}
	return Capacity{}, false
}
