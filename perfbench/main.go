// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload of the fuzzyphase pipeline for a fixed number of
// seconds, checks every answer it gets (against the golden results/
// archive where one exists), and prints the metrics named in
// BENCHMARK.json: a human-readable block first, then, as the last line of
// standard output, one JSON object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with no
// instrumentation. With --trace 1 the same workload runs again through a
// traced pipeline that calls each layer's public functions itself, and the
// JSON carries the per-layer metrics derived from its spans.
//
// Build and run it through perfbench/run.sh from the repository root:
//
//	bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/experiment"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// root is the repository checkout; the golden archive is root/results.
	root string
	// server is the fuzzyphase binary serve-mixed boots.
	server string
	// tmp holds the run's working files (profile stores, span dumps).
	tmp string
	// parallelism is experiment.Options.Parallelism for every analysis.
	parallelism int
}

// setupReps is how many times each workload sets itself up; setup_s is
// the median. It is fixed so that setup_s means the same on every run; the
// short-mode tests lower it.
var setupReps = 3

// workloads maps each workload name to its runner. Each runner sets up
// (setupReps times), runs its timed loop for cfg.seconds, and fills
// the outcome; with cfg.trace it runs the traced pipeline instead.
var workloads = map[string]func(cfg config, out *outcome) error{
	"cold":        runCold,
	"warm":        runWarm,
	"sections":    runSections,
	"serve-mixed": runServeMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints the report. It returns the
// process exit code: 0 whenever a result was printed (a wrong answer is
// reported through "correct" and "failed", not the exit code), 2 on usage
// errors and 1 when the workload could not run at all.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds, trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: cold, warm, sections or serve-mixed")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.IntVar(&seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pipeline and reports per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout (golden archive under results/)")
	fs.StringVar(&cfg.server, "server", "", "fuzzyphase binary for serve-mixed")
	fs.StringVar(&cfg.tmp, "tmp", os.TempDir(), "directory for working files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.parallelism = runtime.NumCPU()

	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(stderr, "perfbench: cannot reset the peak-RSS count: %v\n", err)
		return 1
	}
	out := newOutcome()
	if err := fn(cfg, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	writeReport(stdout, cfg, out)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// outcome accumulates one run's ops, checks and measurements.
type outcome struct {
	attempted, failed int
	failures          []string // the first few failure descriptions
	setup             []float64
	opP50ms           float64 // op_p50_ms
	rssMB             float64 // peak_rss_mb
	// named holds the workload's own figures under descriptive names
	// (cold_suite_s, hot_p99_ms, ...), printed in the human-readable block.
	named []namedValue
	// notes are further lines for the human-readable block.
	notes []string
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
}

type namedValue struct {
	name  string
	value float64
	unit  string
	note  string
}

func newOutcome() *outcome { return &outcome{layers: map[string]float64{}} }

// op records one attempted operation or check; a non-nil err (a wrong
// answer or a failed call) marks it failed.
func (o *outcome) op(err error) {
	o.attempted++
	if err == nil {
		return
	}
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, err.Error())
	}
}

func (o *outcome) name(name string, value float64, unit, note string) {
	o.named = append(o.named, namedValue{name, value, unit, note})
}

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// writeReport prints the machine block, the named figures, any failures,
// and the JSON result line.
func writeReport(w io.Writer, cfg config, out *outcome) {
	fmt.Fprintf(w, "machine: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s parallelism=%d\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), cfg.parallelism)
	fmt.Fprintf(w, "run: workload=%s seed=%d seconds=%d trace=%t setup_reps=%d\n",
		cfg.workload, cfg.seed, int(cfg.seconds/time.Second), cfg.trace, setupReps)
	for _, n := range out.named {
		fmt.Fprintf(w, "metric %-22s %14.4f %-8s %s\n", n.name, n.value, n.unit, n.note)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, f := range out.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}

	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{out.layers[l.name], l.unit}
		}
	} else {
		vals := map[string]float64{
			"setup_s":     median(out.setup),
			"op_p50_ms":   out.opP50ms,
			"peak_rss_mb": out.rssMB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		// Only NaN/Inf can fail here; surface it rather than print junk.
		fmt.Fprintf(w, "FAILED: encoding result: %v\n", err)
		return
	}
	fmt.Fprintf(w, "%s\n", line)
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary at build time, or
// "unknown" when it was built outside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// analysisOptions is the configuration every in-process analysis uses: the
// golden archive's (seed 1, 320 intervals, Itanium 2, the paper's tree and
// fold settings), at the machine's parallelism.
func analysisOptions(cfg config) experiment.Options {
	return experiment.Options{Seed: 1, Parallelism: cfg.parallelism}
}

// rng returns the generator for one workload's inputs: a function of the
// seed and the workload name only.
func rng(cfg config) *rand.Rand {
	var h uint64 = 14695981039346656037
	for _, c := range []byte(cfg.workload) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return rand.New(rand.NewPCG(cfg.seed, h))
}

// shuffled returns a seeded permutation of names.
func shuffled(r *rand.Rand, names []string) []string {
	out := append([]string(nil), names...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// timedLoop calls pass until the window has elapsed, at least once.
func timedLoop(window time.Duration, pass func() error) error {
	deadline := time.Now().Add(window)
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := pass(); err != nil {
			return err
		}
	}
	return nil
}

// costs holds the seconds each named part of a closed-loop pass took, one
// entry per pass.
type costs map[string][]float64

// typical is the typical time of a pass's parts whose names start with
// prefix: the sum of each part's median over passes. Summing per-part
// medians, rather than taking the median of pass sums, keeps a burst of
// machine noise that slows one part of one pass from moving the figure.
func (c costs) typical(prefix string) float64 {
	var t float64
	for part, xs := range c {
		if strings.HasPrefix(part, prefix) {
			t += median(xs)
		}
	}
	return t
}

// closedLoop runs pass until the window has elapsed, at least once. pass
// returns the time of each of its parts and its peak resident set.
// closedLoop sets op_p50_ms to the typical pass time and peak_rss_mb to
// the median peak over passes, and returns the per-part costs and the
// number of passes.
func closedLoop(window time.Duration, out *outcome, pass func() (map[string]time.Duration, float64)) (costs, int, error) {
	c := costs{}
	var rss []float64
	err := timedLoop(window, func() error {
		parts, peak := pass()
		for part, d := range parts {
			c[part] = append(c[part], d.Seconds())
		}
		rss = append(rss, peak)
		return nil
	})
	out.opP50ms = c.typical("") * 1000
	out.rssMB = median(rss)
	out.name("peak_rss_mb", out.rssMB, "MB", fmt.Sprintf("VmHWM of the benchmark process, median of %d passes", len(rss)))
	return c, len(rss), err
}

// measured runs fn from a fresh heap and returns its duration and peak
// resident set in MB. Before fn it hands the heap back to the OS and
// restarts the kernel's peak-RSS count, so fn starts with the memory of a
// fresh process whatever ran before it; that also makes the peak a
// property of fn alone. Failing to read the peak yields 0, which the
// short-mode tests reject.
func measured(fn func()) (time.Duration, float64) {
	debug.FreeOSMemory()
	_ = resetPeakRSS() // run checked at start-up that this works
	start := time.Now()
	fn()
	d := time.Since(start)
	rss, err := peakRSSMB("self")
	if err != nil {
		return d, 0
	}
	return d, rss
}

// repeatSetup runs setup setupReps times, recording each duration. Every
// repetition but the last is torn down before the next starts.
func repeatSetup(out *outcome, setup func() error, teardown func() error) error {
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
		if i < setupReps-1 && teardown != nil {
			if err := teardown(); err != nil {
				return fmt.Errorf("set-up teardown: %w", err)
			}
		}
	}
	return nil
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) count of this
// process at its current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM (peak resident set) of pid ("self" for this
// process) in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
