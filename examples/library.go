// Package examples is the bundled library of named specs: one JSON file
// per scenario (scenarios/), sweep (sweeps/) and capacity plan (capacity/),
// each named after its spec. README.md gives each file's reason. The embed
// sits here because go:embed cannot reach a parent directory.
package examples

import (
	"embed"
	"fmt"
	"io/fs"
)

//go:embed scenarios/*.json sweeps/*.json capacity/*.json
var library embed.FS

// Load parses every file of one kind ("scenarios", "sweeps" or "capacity")
// with parse, in file-name order; each call returns fresh values. A file
// that does not parse is a programming error: Load panics and names it.
func Load[T any](kind string, parse func([]byte) (T, error)) []T {
	paths, err := fs.Glob(library, kind+"/*.json")
	if err != nil || len(paths) == 0 {
		panic(fmt.Sprintf("examples: no %s in the library", kind))
	}
	specs := make([]T, len(paths))
	for i, path := range paths {
		data, err := library.ReadFile(path)
		if err == nil {
			specs[i], err = parse(data)
		}
		if err != nil {
			panic(fmt.Sprintf("examples: %s: %v", path, err))
		}
	}
	return specs
}
