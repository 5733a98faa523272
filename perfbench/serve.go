package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiment"
)

// The serve-mixed traffic: hot reads of analyses warmed in set-up at a
// fixed rate, beside a trickle of cache misses with distinct seeds.
const (
	hotRate        = 500 // hot requests per second
	missInterval   = time.Second
	serveIntervals = 60
	serveWarmup    = 6
	// serverRing is how many of its latest observations the server's
	// request_duration summary keeps; its quantiles describe only these.
	serverRing = 1024
	// userHZ is the unit of the times in /proc/<pid>/stat: the kernel's
	// USER_HZ, 100 ticks a second on every architecture Go supports.
	userHZ = 100
)

// missNames are the workloads the misses rotate over.
var missNames = []string{"spec.gzip", "odb-c", "sjas"}

// quadrantLine is how an analysis body names its quadrant.
var quadrantLine = regexp.MustCompile(`(?m)^  quadrant Q-(I|II|III|IV) -> `)

func analyzeURL(base, name string, seed uint64) string {
	return fmt.Sprintf("%s/v1/analyze/%s?intervals=%d&warmup=%d&seed=%d", base, name, serveIntervals, serveWarmup, seed)
}

// server is one fuzzyphase serve process on loopback.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan error // receives cmd.Wait's result
}

// startServer boots the fuzzyphase binary on a free loopback port and
// waits until it answers /healthz.
func startServer(cfg config) (*server, error) {
	if cfg.server == "" {
		return nil, errors.New("no --server binary given")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(cfg.tmp, "serve-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.server, "serve", "-addr", addr, "-cache-entries", "256",
		"-parallel", strconv.Itoa(cfg.parallelism))
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "FUZZYPHASE_") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()

	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("server did not come up on %s: %v", addr, err)
		}
		select {
		case err := <-s.done:
			s.log.Close()
			return nil, fmt.Errorf("server exited during start-up: %v (log %s)", err, s.log.Name())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// stop drains the server with SIGTERM and requires a clean exit 0.
func (s *server) stop() error {
	defer s.log.Close()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal server: %w", err)
	}
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("server did not drain cleanly: %v (log %s)", err, s.log.Name())
		}
		return os.Remove(s.log.Name())
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("server did not exit within 20s of SIGTERM")
	}
}

// kill ends the server without a drain and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // it may already have exited
	<-s.done
	s.log.Close()
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// get fetches url and returns the status and body.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// oneConn returns a client that keeps a single connection open.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// scrape is a snapshot of the server's counters.
type scrape struct {
	metrics map[string]float64 // /metrics series by name{labels}
	cache   string             // /cache/stats text
	cpuMs   float64            // utime+stime of the server process
}

func takeScrape(s *server) (scrape, error) {
	var sc scrape
	code, body, err := get(http.DefaultClient, s.base+"/metrics")
	if err != nil || code != http.StatusOK {
		return sc, fmt.Errorf("scrape /metrics: status %d, %v", code, err)
	}
	sc.metrics = map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				sc.metrics[line[:i]] = v
			}
		}
	}
	code, body, err = get(http.DefaultClient, s.base+"/cache/stats")
	if err != nil || code != http.StatusOK {
		return sc, fmt.Errorf("scrape /cache/stats: status %d, %v", code, err)
	}
	sc.cache = strings.TrimSpace(string(body))
	stat, err := os.ReadFile("/proc/" + s.pid() + "/stat")
	if err != nil {
		return sc, err
	}
	// Fields after the parenthesized command: state is field 3, utime 14,
	// stime 15 (1-based), in clock ticks of 1/userHZ s.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return sc, fmt.Errorf("short /proc/%s/stat", s.pid())
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return sc, fmt.Errorf("parse /proc/%s/stat", s.pid())
	}
	sc.cpuMs = (ut + st) * 1000 / userHZ
	return sc, nil
}

// request is one scheduled request of the open loop.
type request struct {
	url  string
	due  time.Time
	want []byte // expected body of a hot read; nil for a miss
}

// runServeMixed is the serve-mixed workload: an open loop against a real
// fuzzyphase serve on loopback. Hot reads go at a fixed rate to the five
// analyses warmed in set-up; a trickle of misses with distinct seeds, on
// its own connection, runs beside them. Each request is timed from the
// moment it was due.
func runServeMixed(cfg config, out *outcome) error {
	r := rng(cfg)
	var srv *server
	hot := map[string][]byte{} // warmed response bodies by workload
	setup := func() error {
		var err error
		if srv, err = startServer(cfg); err != nil {
			return err
		}
		// Warm the five keys, then read them once more as the untimed
		// warm-up: the second answers must equal the first.
		for pass := 0; pass < 2; pass++ {
			for _, name := range coldNames {
				code, body, err := get(http.DefaultClient, analyzeURL(srv.base, name, 1))
				if err != nil || code != http.StatusOK {
					return fmt.Errorf("warm %s: status %d, %v", name, code, err)
				}
				if pass == 0 {
					hot[name] = body
				} else {
					out.op(sameBody(name, body, hot[name]))
				}
			}
		}
		return nil
	}
	teardown := func() error {
		err := srv.stop()
		srv = nil
		return err
	}
	if err := repeatSetup(out, setup, teardown); err != nil {
		if srv != nil {
			srv.kill()
		}
		return err
	}

	// The schedule: hot reads every 1/hotRate over random keys, and one
	// miss per missInterval with a fresh seed, rotating over missNames.
	start := time.Now().Add(100 * time.Millisecond)
	nHot := int(cfg.seconds.Seconds() * hotRate)
	hotReqs := make([]request, nHot)
	for i := range hotReqs {
		name := coldNames[r.IntN(len(coldNames))]
		hotReqs[i] = request{analyzeURL(srv.base, name, 1), start.Add(time.Duration(i) * time.Second / hotRate), hot[name]}
	}
	nMiss := int(cfg.seconds / missInterval)
	missBase := 2 + r.Uint64N(1<<40) // seed 1 is the hot keys'
	rot := r.IntN(len(missNames))
	missReqs := make([]request, nMiss)
	for j := range missReqs {
		name := missNames[(rot+j)%len(missNames)]
		missReqs[j] = request{analyzeURL(srv.base, name, missBase+uint64(j)), start.Add(missInterval/2 + time.Duration(j)*missInterval), nil}
	}

	before, err := takeScrape(srv)
	if err != nil {
		srv.kill()
		return err
	}
	hotLat, missLat, done, late := openLoop(cfg, hotReqs, missReqs, out)
	after, err := takeScrape(srv)
	if err != nil {
		srv.kill()
		return err
	}
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		srv.kill()
		return err
	}
	// The drain is part of the contract: a server that does not exit 0 on
	// SIGTERM fails the run.
	out.op(srv.stop())
	out.op(checkServedAnswers(cfg, hot))

	hotP50, hotP99 := quantile(hotLat, 0.5), quantile(hotLat, 0.99)
	out.opP50ms = hotP50
	out.rssMB = rss
	out.name("hot_p50_ms", hotP50, "ms", fmt.Sprintf("from due time, %d hot reads at %d/s", len(hotLat), hotRate))
	out.name("hot_p99_ms", hotP99, "ms", "")
	out.name("miss_p50_ms", median(missLat), "ms", fmt.Sprintf("%d misses", len(missLat)))
	out.name("gen_late_p99_ms", quantile(late, 0.99), "ms", "generator lateness")
	out.name("peak_rss_mb", rss, "MB", "VmHWM of the server")
	out.notes = append(out.notes, strings.Split(after.cache, "\n")...)

	d := func(series string) float64 { return after.metrics[series] - before.metrics[series] }
	hits, misses := d("fuzzyphase_analyze_cache_hits_total"), d("fuzzyphase_analyze_cache_misses_total")
	serverP50 := after.metrics[`fuzzyphase_request_duration_seconds{endpoint="analyze",quantile="0.5"}`] * 1000
	out.layers = map[string]float64{
		"memo_hits":              hits,
		"memo_misses":            misses,
		"memo_shared":            d("fuzzyphase_analyze_cache_shared_total"),
		"store_disk_hits":        d("fuzzyphase_profilestore_disk_hits"),
		"store_misses":           d("fuzzyphase_profilestore_misses"),
		"server_p50_ms.analyze":  serverP50,
		"server_p99_ms.analyze":  after.metrics[`fuzzyphase_request_duration_seconds{endpoint="analyze",quantile="0.99"}`] * 1000,
		"admission_queued.heavy": d(`fuzzyphase_admission_queued{class="heavy"}`),
		"admission_shed.heavy":   d(`fuzzyphase_admission_shed{class="heavy"}`),
		"server_cpu_ms_per_req":  (after.cpuMs - before.cpuMs) / float64(len(hotReqs)+len(missReqs)),
		"gen_late_p99_ms":        quantile(late, 0.99),
	}
	if hits+misses > 0 {
		out.layers["memo_hit_ratio"] = hits / (hits + misses)
	}
	if cfg.trace {
		// The server's quantiles cover its last serverRing analyze requests,
		// hot and miss alike; compare them with the client's view of the
		// same requests.
		last := done[max(0, len(done)-serverRing):]
		out.name("transport_p50_ms", median(last)-serverP50, "ms",
			fmt.Sprintf("client p50 minus server analyze p50, last %d requests", len(last)))
	}
	return nil
}

func sameBody(name string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("hot %s: body differs from the one captured in set-up:\n%s", name, got)
	}
	return nil
}

// openLoop sends every request at its due time — hot reads over
// nproc-1 connections (at least one), misses over one more — and returns
// the hot and miss latencies, every latency in order of completion, and
// the generator's lateness, all in ms.
func openLoop(cfg config, hotReqs, missReqs []request, out *outcome) (hotLat, missLat, done, late []float64) {
	// Each queue holds every request of its class, so the generator never
	// blocks on a slow consumer: a stall shows up as latency, not as a
	// late schedule.
	hotQ := make(chan request, len(hotReqs))
	missQ := make(chan request, len(missReqs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	worker := func(q <-chan request, lat *[]float64) {
		defer wg.Done()
		c := oneConn()
		defer c.CloseIdleConnections()
		for req := range q {
			code, body, err := get(c, req.url)
			d := time.Since(req.due)
			switch {
			case err != nil:
			case code != http.StatusOK:
				err = fmt.Errorf("%s: status %d: %s", req.url, code, body)
			case req.want != nil:
				if !bytes.Equal(body, req.want) {
					err = fmt.Errorf("%s: hot body differs from the one captured in set-up", req.url)
				}
			case !quadrantLine.Match(body):
				err = fmt.Errorf("%s: miss answer names no quadrant:\n%s", req.url, body)
			}
			mu.Lock()
			out.op(err)
			*lat = append(*lat, ms(d))
			done = append(done, ms(d))
			mu.Unlock()
		}
	}
	hotConns := cfg.parallelism - 1
	if hotConns < 1 {
		hotConns = 1
	}
	wg.Add(hotConns + 1)
	for i := 0; i < hotConns; i++ {
		go worker(hotQ, &hotLat)
	}
	go worker(missQ, &missLat)

	late = make([]float64, 0, len(hotReqs)+len(missReqs))
	h, m := 0, 0
	for h < len(hotReqs) || m < len(missReqs) {
		var req request
		var q chan request
		if m < len(missReqs) && (h == len(hotReqs) || missReqs[m].due.Before(hotReqs[h].due)) {
			req, q = missReqs[m], missQ
			m++
		} else {
			req, q = hotReqs[h], hotQ
			h++
		}
		if wait := time.Until(req.due); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, ms(time.Since(req.due)))
		q <- req
	}
	close(hotQ)
	close(missQ)
	wg.Wait()
	return hotLat, missLat, done, late
}

// checkServedAnswers checks the warmed hot bodies against the library's
// own analyses of the same configurations.
func checkServedAnswers(cfg config, hot map[string][]byte) error {
	opt := experiment.Options{Intervals: serveIntervals, Warmup: serveWarmup, Seed: 1, Parallelism: cfg.parallelism}
	for _, name := range coldNames {
		res, err := experiment.AnalyzeCtx(context.Background(), name, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if want := experiment.Summary(res); string(hot[name]) != want {
			return fmt.Errorf("served %s differs from the library's analysis:\n%s", name, hot[name])
		}
	}
	return nil
}
