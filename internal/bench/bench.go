// Package bench names the paper's evaluation on the simulator: the paper-*
// sweeps of the spec library (examples/sweeps), one per experiment, whose
// assert clauses state the paper's claims. cmd/tetrabft-bench runs them.
package bench

import (
	"strings"

	"tetrabft/internal/sweep"
)

// Sweeps returns the library's paper-* sweeps in file-name order.
func Sweeps() []sweep.Sweep {
	var out []sweep.Sweep
	for _, sw := range sweep.Named() {
		if strings.HasPrefix(sw.Name, "paper-") {
			out = append(out, sw)
		}
	}
	return out
}
