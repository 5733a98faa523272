package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMain sets every workload up once, to keep the short modes short.
func TestMain(m *testing.M) {
	setupReps = 1
	os.Exit(m.Run())
}

// runBench runs the benchmark in-process and decodes its result line.
func runBench(t *testing.T, root string, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--root", root, "--tmp", t.TempDir(), "--seconds", "1"}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
	}
	return res, stdout.String()
}

func metricNames(res result) []string {
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONAgrees locks BENCHMARK.json to the code: the same
// workloads, and the same metrics with the same units, in the same order.
func TestBenchmarkJSONAgrees(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, code %q", got, want)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := bj.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end_to_end[%d] = %s %s, code %s %s", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := bj.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, code %+v", i, got, m)
		}
	}
}

// buildServer builds the fuzzyphase binary serve-mixed boots.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fuzzyphase")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/fuzzyphase")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build fuzzyphase: %v\n%s", err, out)
	}
	return bin
}

// TestShortModes runs every workload for one second, untraced and traced,
// and checks that it answers correctly and reports exactly the metrics
// BENCHMARK.json names for that mode.
func TestShortModes(t *testing.T) {
	server := buildServer(t)
	var e2e, layers []string
	for _, m := range endToEnd {
		e2e = append(e2e, m.name)
	}
	for _, m := range perLayer {
		layers = append(layers, m.name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				res, stdout := runBench(t, "..", "--workload", w, "--seed", "7", "--trace", trace, "--server", server)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout)
				}
				want := e2e
				if trace == "1" {
					want = layers
				}
				if got := metricNames(res); strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("metrics %v, want %v", got, want)
				}
				for _, name := range e2e {
					if m, ok := res.Metrics[name]; ok && m.Value <= 0 {
						t.Errorf("%s = %v, want > 0", name, m.Value)
					}
				}
				if !strings.Contains(stdout, "machine: cpu=") {
					t.Errorf("no machine block:\n%s", stdout)
				}
			})
		}
	}
}

// TestWrongGoldenIsFailedOp corrupts one golden Table-2 value and checks
// that the cold workload reports the analysis as a failed op.
func TestWrongGoldenIsFailedOp(t *testing.T) {
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"table2.txt", "odbc.txt", "sjas.txt", "section46.txt", "section7.txt"} {
		b, err := os.ReadFile(filepath.Join("..", "results", f))
		if err != nil {
			t.Fatal(err)
		}
		if f == "table2.txt" {
			// spec.gzip's RE_kopt is 0.105 in the archive.
			b = bytes.Replace(b, []byte("spec.gzip      spec        0.0019    0.105"), []byte("spec.gzip      spec        0.0019    0.106"), 1)
		}
		if err := os.WriteFile(filepath.Join(root, "results", f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, stdout := runBench(t, root, "--workload", "cold", "--seed", "1", "--trace", "0")
	// One set-up pass and one timed pass each analyse spec.gzip once.
	if res.Correct || res.Failed != 2 {
		t.Fatalf("correct=%t failed=%d, want false and 2\n%s", res.Correct, res.Failed, stdout)
	}
	if !strings.Contains(stdout, "FAILED: spec.gzip: Table-2 row") {
		t.Errorf("failure not described:\n%s", stdout)
	}
}
