package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestRun runs the TCP key-value service end to end and checks its
// headline: both shards serve what was submitted through the gateway and
// anchors commit. The output carries wall-clock figures, so it is matched,
// not pinned.
func TestRun(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	runErr := run()
	os.Stdout = stdout
	if _, err := out.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	printed, err := io.ReadAll(out)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run: %v\n%s", runErr, printed)
	}
	for _, want := range []string{
		"shard 0 serves sensor-000=reading-000 from its decided log",
		"shard 1 serves sensor-001=reading-001 from its decided log",
		"gateway round-trips verified on both shards ✓",
	} {
		if !strings.Contains(string(printed), want) {
			t.Errorf("output lacks %q:\n%s", want, printed)
		}
	}
}
