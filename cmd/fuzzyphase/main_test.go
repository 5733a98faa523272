package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI builds the fuzzyphase binary into a temporary directory.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fuzzyphase")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/fuzzyphase").CombinedOutput(); err != nil {
		t.Fatalf("build fuzzyphase: %v\n%s", err, out)
	}
	return bin
}

// runCLI runs the binary and returns its stderr and exit code.
func runCLI(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	var stderr strings.Builder
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stderr.String(), 0
	case errors.As(err, &exit):
		return stderr.String(), exit.ExitCode()
	}
	t.Fatalf("fuzzyphase %v: %v", args, err)
	return "", 0
}

// TestPositionalArguments: the sweeps analyse the workloads they are
// given, a second sampling budget is a usage error, and an error that
// already names the command is not prefixed twice.
func TestPositionalArguments(t *testing.T) {
	bin := buildCLI(t)

	t.Run("sweep-interval", func(t *testing.T) {
		// 20 intervals leave too few steady-state EIPVs, so the sweep
		// fails on the first workload it analyses; that must be the one
		// named on the command line, not the paper's list.
		stderr, code := runCLI(t, bin, "sweep-interval", "spec.gzip", "-intervals", "20")
		if code == 0 || !strings.Contains(stderr, "spec.gzip") {
			t.Errorf("exit %d, stderr %q; want a failure naming spec.gzip", code, stderr)
		}
	})
	t.Run("sampling", func(t *testing.T) {
		if stderr, code := runCLI(t, bin, "sampling", "6", "7", "-intervals", "20"); code != 2 {
			t.Errorf("sampling 6 7: exit %d, want 2 (usage)\n%s", code, stderr)
		}
	})
	t.Run("figure", func(t *testing.T) {
		stderr, code := runCLI(t, bin, "figure", "14")
		if code != 1 || strings.Count(stderr, "fuzzyphase:") != 1 {
			t.Errorf("figure 14: exit %d, stderr %q; want exit 1 and one \"fuzzyphase:\" prefix", code, stderr)
		}
	})
}
