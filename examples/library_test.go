package examples_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tetrabft/examples"
	"tetrabft/internal/scenario"
	"tetrabft/internal/sweep"
)

// TestLibraryIntegrity holds every embedded spec file to the library's
// contract: the embed carries exactly the checked-in files, each parses
// strictly (Parse and ParseCapacity also validate), its name is its file
// stem, names are unique across all three kinds, and Named and ByName
// return the file's spec.
func TestLibraryIntegrity(t *testing.T) {
	owner := make(map[string]string) // spec name → the file that defines it
	checkKind(t, owner, "scenarios", scenario.Parse, scenario.Named(), scenario.ByName,
		func(sc scenario.Scenario) string { return sc.Name })
	checkKind(t, owner, "sweeps", sweep.Parse, sweep.Named(), sweep.ByName,
		func(sw sweep.Sweep) string { return sw.Name })
	checkKind(t, owner, "capacity", sweep.ParseCapacity, sweep.NamedCapacity(), sweep.CapacityByName,
		func(cp sweep.Capacity) string { return cp.Name })
}

func checkKind[T any](t *testing.T, owner map[string]string, kind string,
	parse func([]byte) (T, error), named []T, byName func(string) (T, bool), name func(T) string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(kind, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	embedded := examples.Load(kind, func(data []byte) ([]byte, error) { return data, nil })
	if len(embedded) != len(paths) || len(named) != len(paths) {
		t.Fatalf("%s: %d files on disk, %d embedded, %d named", kind, len(paths), len(embedded), len(named))
	}
	for i, path := range paths {
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(embedded[i], onDisk) {
			t.Errorf("%s: embedded file %d is not %s", kind, i, path)
		}
		spec, err := parse(onDisk)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		n := name(spec)
		if stem := strings.TrimSuffix(filepath.Base(path), ".json"); n != stem {
			t.Errorf("%s: spec is named %q, want its file stem %q", path, n, stem)
		}
		if prev, dup := owner[n]; dup {
			t.Errorf("%s: name %q is already taken by %s", path, n, prev)
		}
		owner[n] = path
		if !reflect.DeepEqual(named[i], spec) {
			t.Errorf("%s: Named()[%d] is not the file's spec", path, i)
		}
		if got, ok := byName(n); !ok || !reflect.DeepEqual(got, spec) {
			t.Errorf("%s: ByName(%q) = %v, not the file's spec", path, n, ok)
		}
	}
	if _, ok := byName("no-such-spec"); ok {
		t.Errorf("%s: ByName invented a spec", kind)
	}
}
