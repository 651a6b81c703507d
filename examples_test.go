package flattree_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateExamples = flag.Bool("update-examples", false, "rewrite testdata/examples/*.stdout from the current examples")

// tookLine marks an example's wall-time lines, the only lines that differ
// from run to run; they are dropped before the comparison.
const tookLine = "  took "

// TestExamplesOutput builds every main under examples/ and holds its
// stdout against testdata/examples/<name>.stdout, less its tookLine lines.
// The examples print λ, FCTs, path lengths and control-plane epochs, so a
// change that moves any of them shows here and must rewrite the golden
// with -update-examples.
func TestExamplesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the examples; skipped in -short")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, e := range entries {
		name := e.Name()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		var stdout, stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, filepath.Join(bin, name))
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		cancel()
		if err != nil {
			t.Errorf("%s: %v\n%s", name, err, stderr.Bytes())
			continue
		}
		var kept []string
		for _, line := range strings.SplitAfter(stdout.String(), "\n") {
			if !strings.HasPrefix(line, tookLine) {
				kept = append(kept, line)
			}
		}
		got := strings.Join(kept, "")
		golden := filepath.Join("testdata", "examples", name+".stdout")
		if *updateExamples {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: stdout differs from %s (rewrite with -update-examples when the change is meant)\ngot:\n%s\nwant:\n%s",
				name, golden, got, want)
		}
	}
}
