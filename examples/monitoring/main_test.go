package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.golden from this run")

// TestGolden pins the example's whole report, byte for byte: the healthy
// run, the minimum frequency, the fault the contract catches, the verdict
// and the post-mortem audit. Regenerate with `go test -update`.
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "output.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output differs from %s:\n--- got\n%s--- want\n%s", golden, out.Bytes(), want)
	}
}
