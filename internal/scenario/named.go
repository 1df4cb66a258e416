package scenario

import "tetrabft/examples"

// Named returns the bundled scenario library, one spec per file of
// examples/scenarios in file-name order. Each call returns fresh values,
// safe to mutate.
func Named() []Scenario { return examples.Load("scenarios", Parse) }

// ByName returns the bundled scenario with the given name.
func ByName(name string) (Scenario, bool) {
	for _, sc := range Named() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
