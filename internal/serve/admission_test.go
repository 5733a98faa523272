package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fuzzyphase "repro"
	"repro/internal/experiment"
)

// newAdmissionServer is newTestServer, but keeps the *Server so tests can
// observe the limiter gauges directly.
func newAdmissionServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		experiment.SetAnalysisCacheCap(0)
		experiment.SetProfileMemCap(0)
		experiment.SetProfileLogf(nil)
		_ = experiment.SetProfileDir("")
		experiment.InvalidateAnalysisCache()
	})
	return srv, ts
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestLimiterBounds exercises the limiter state machine directly: admit up
// to limit, queue up to queueCap, shed beyond that, honor context
// cancellation for queued waiters, and drain every gauge back to zero.
func TestLimiterBounds(t *testing.T) {
	l := newLimiter("heavy", 1, 1)

	rel1, err := l.acquire(context.Background(), 3)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if got := l.inFlight.Load(); got != 1 {
		t.Fatalf("inFlight = %d, want 1", got)
	}

	// Second acquire saturates the queue (blocks until cancelled).
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	err2c := make(chan error, 1)
	go func() {
		rel, err := l.acquire(ctx2, 3)
		if err == nil {
			rel()
		}
		err2c <- err
	}()
	waitFor(t, "queue depth 1", func() bool { return l.queued.Load() == 1 })

	// Third is shed immediately — the queue never grows past its cap.
	_, err3 := l.acquire(context.Background(), 3)
	var shed *shedError
	if !errors.As(err3, &shed) {
		t.Fatalf("third acquire = %v, want shedError", err3)
	}
	if shed.retryAfter != 3 || shed.class != "heavy" {
		t.Errorf("shed = %+v, want retryAfter 3 class heavy", shed)
	}
	if got := l.queued.Load(); got != 1 {
		t.Errorf("queue depth after shed = %d, want still 1", got)
	}

	// Cancelling the queued waiter surfaces its context error and frees
	// the ticket.
	cancel2()
	if err := <-err2c; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued waiter returned %v, want context.Canceled", err)
	}
	rel1()
	waitFor(t, "gauges drained to zero", func() bool {
		return l.inFlight.Load() == 0 && l.queued.Load() == 0
	})
	if q, s := l.queuedTotal.Load(), l.shedTotal.Load(); q != 1 || s != 1 {
		t.Errorf("queuedTotal = %d shedTotal = %d, want 1 and 1", q, s)
	}

	// The drained limiter admits again.
	rel, err := l.acquire(context.Background(), 3)
	if err != nil {
		t.Fatalf("acquire after drain: %v", err)
	}
	rel()

	// limit <= 0 means unlimited, but in-flight is still tracked.
	u := newLimiter("light", 0, 0)
	relA, errA := u.acquire(context.Background(), 1)
	relB, errB := u.acquire(context.Background(), 1)
	if errA != nil || errB != nil || u.inFlight.Load() != 2 {
		t.Fatalf("unlimited limiter: errs %v %v, inFlight %d", errA, errB, u.inFlight.Load())
	}
	relA()
	relB()
}

// slowAnalyzeURL is a heavy, definitely-uncached analysis request: each
// distinct seed is a fresh Options key, and intervals=640 keeps the
// simulation busy long enough to hold an admission slot while the test
// probes the limiter. Requests carry a cancellable context so the test
// never actually waits the simulation out.
func slowAnalyzeURL(base string, seed int) string {
	return fmt.Sprintf("%s/analyze/odb-h.q18?intervals=640&warmup=6&seed=%d", base, seed)
}

// startGet issues GET url under ctx on a fresh goroutine and returns a
// channel yielding the status (0 on transport error, e.g. cancellation).
func startGet(ctx context.Context, wg *sync.WaitGroup, url string) <-chan int {
	out := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			out <- 0
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out <- resp.StatusCode
	}()
	return out
}

// TestServeShedsWhenSaturated is the overload criterion end to end: with
// HeavyLimit 1 and HeavyQueue 1, a third concurrent cold analysis is shed
// with 429 + Retry-After while the light class keeps answering, the queue
// depth never exceeds its bound, and the gauges drain to zero once the
// clients go away.
func TestServeShedsWhenSaturated(t *testing.T) {
	srv, ts := newAdmissionServer(t, Config{
		HeavyLimit: 1, HeavyQueue: 1, RetryAfter: 7 * time.Second,
	})
	experiment.InvalidateAnalysisCache()

	var wg sync.WaitGroup
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	startGet(ctxA, &wg, slowAnalyzeURL(ts.URL, 9001))
	waitFor(t, "slot holder in flight", func() bool { return srv.heavy.inFlight.Load() == 1 })

	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	startGet(ctxB, &wg, slowAnalyzeURL(ts.URL, 9002))
	waitFor(t, "one queued waiter", func() bool { return srv.heavy.queued.Load() == 1 })

	// Saturated and queue full: the next distinct cold analysis is shed
	// immediately.
	resp, err := http.Get(slowAnalyzeURL(ts.URL, 9003))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed request: status %d, want 429 (%s)", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want \"7\"", got)
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Errorf("shed body %q does not mention overload", strings.TrimSpace(string(body)))
	}
	if got := srv.heavy.queued.Load(); got != 1 {
		t.Errorf("queue depth after shed = %d, want still 1 (shed must not queue)", got)
	}

	// The light class is a separate budget: cheap reads still work while
	// heavy is saturated.
	if code, _ := get(t, ts.URL+"/workloads"); code != http.StatusOK {
		t.Errorf("/workloads during heavy saturation = %d, want 200", code)
	}

	// The admission series are visible on /metrics.
	_, metricsBody := get(t, ts.URL+"/metrics")
	for _, series := range []string{
		`fuzzyphase_admission_shed{class="heavy"} 1`,
		`fuzzyphase_admission_queue_depth{class="heavy"} 1`,
		`fuzzyphase_admission_limit{class="heavy"} 1`,
		`fuzzyphase_admission_queued{class="heavy"}`,
	} {
		if !strings.Contains(metricsBody, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	// Clients give up; everything drains.
	cancelA()
	cancelB()
	wg.Wait()
	waitFor(t, "admission gauges drained", func() bool {
		return srv.heavy.inFlight.Load() == 0 && srv.heavy.queued.Load() == 0
	})
}

// metricValue reads one series' value from a /metrics body, or -1 when
// the series is absent.
func metricValue(body, series string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				return f
			}
		}
	}
	return -1
}

// TestServeColdMissStorm is the sustained overload check over real
// loopback TCP: eight clients send distinct-seed cold analyses at a heavy
// budget of one slot and two queue places until some are served and some
// shed. No request may end in a 5xx or a transport error, every 429 must
// carry the configured Retry-After, the shed counter must show on
// /metrics, and the heavy queue must drain to zero once the clients stop.
func TestServeColdMissStorm(t *testing.T) {
	_, ts := newAdmissionServer(t, Config{
		HeavyLimit: 1, HeavyQueue: 2, RetryAfter: 2 * time.Second,
	})
	experiment.InvalidateAnalysisCache()

	const clients = 8
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()

	var seed, served, shed atomic.Int64
	var mu sync.Mutex
	var bad []string
	fail := func(format string, args ...any) {
		mu.Lock()
		bad = append(bad, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				url := fmt.Sprintf("%s/analyze/spec.gzip?intervals=60&warmup=6&seed=%d", ts.URL, 20000+seed.Add(1))
				resp, err := client.Get(url)
				if err != nil {
					fail("transport error: %v", err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
					if got := resp.Header.Get("Retry-After"); got != "2" {
						fail("429 with Retry-After %q, want \"2\"", got)
					}
				default:
					fail("%s: status %d", url, resp.StatusCode)
				}
			}
		}()
	}
	var once sync.Once
	stopClients := func() { once.Do(func() { close(stop); wg.Wait() }) }
	defer stopClients()

	// A served cold analysis takes seconds under the race detector on a
	// small machine, so the storm gets a longer deadline than waitFor's.
	deadline := time.Now().Add(time.Minute)
	for served.Load() < 2 || shed.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("storm: %d served and %d shed after a minute, want >= 2 and >= 1", served.Load(), shed.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopClients()
	t.Logf("storm: %d requests, %d served, %d shed", seed.Load(), served.Load(), shed.Load())
	if len(bad) > 0 {
		t.Errorf("%d requests broke the overload contract, e.g. %s", len(bad), bad[0])
	}

	_, body := get(t, ts.URL+"/metrics")
	if got := metricValue(body, `fuzzyphase_admission_shed{class="heavy"}`); got < 1 {
		t.Errorf(`fuzzyphase_admission_shed{class="heavy"} = %v, want >= 1`, got)
	}
	waitFor(t, "heavy queue depth 0 on /metrics", func() bool {
		_, body := get(t, ts.URL+"/metrics")
		return metricValue(body, `fuzzyphase_admission_queue_depth{class="heavy"}`) == 0
	})
}

// TestCoalescingBypassesAdmission: requests whose analysis is already
// cached, or already in flight, must be served even when the heavy class
// is saturated with its queue disabled — joining existing work adds no
// simulator load, so it is never queued or shed.
func TestCoalescingBypassesAdmission(t *testing.T) {
	srv, ts := newAdmissionServer(t, Config{
		HeavyLimit: 1, HeavyQueue: -1, RetryAfter: time.Second,
	})
	experiment.InvalidateAnalysisCache()

	// Warm one analysis while the limiter is idle.
	if code, _ := get(t, ts.URL+"/analyze/spec.gzip?"+fastQuery); code != http.StatusOK {
		t.Fatalf("warmup failed: %d", code)
	}

	// Occupy the only heavy slot with a slow cold flight.
	var wg sync.WaitGroup
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	startGet(ctxA, &wg, slowAnalyzeURL(ts.URL, 9101))
	waitFor(t, "slot holder in flight", func() bool { return srv.heavy.inFlight.Load() == 1 })

	// A distinct cold key is shed instantly (no queue).
	if code, _ := get(t, slowAnalyzeURL(ts.URL, 9102)); code != http.StatusTooManyRequests {
		t.Fatalf("distinct cold request during saturation = %d, want 429", code)
	}
	shedBefore := srv.heavy.shedTotal.Load()

	// The warm key bypasses admission entirely and serves from cache.
	before := experiment.AnalysisCacheStats()
	if code, _ := get(t, ts.URL+"/analyze/spec.gzip?"+fastQuery); code != http.StatusOK {
		t.Fatalf("cached analysis during saturation = %d, want 200", code)
	}
	if after := experiment.AnalysisCacheStats(); after.Hits != before.Hits+1 {
		t.Errorf("cache hits %d -> %d, want +1", before.Hits, after.Hits)
	}

	// Joining the in-flight key bypasses too: the request is admitted (the
	// singleflight Shared counter moves) instead of being shed.
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	startGet(ctxB, &wg, slowAnalyzeURL(ts.URL, 9101))
	waitFor(t, "second client joined the in-flight analysis", func() bool {
		return experiment.AnalysisCacheStats().Shared > before.Shared
	})
	if got := srv.heavy.shedTotal.Load(); got != shedBefore {
		t.Errorf("shedTotal moved %d -> %d; coalesced join must not shed", shedBefore, got)
	}
	if got := srv.heavy.queued.Load(); got != 0 {
		t.Errorf("queue depth = %d; coalesced join must not queue", got)
	}

	cancelA()
	cancelB()
	wg.Wait()
	waitFor(t, "admission gauges drained", func() bool {
		return srv.heavy.inFlight.Load() == 0 && srv.heavy.queued.Load() == 0
	})
}

// TestTable2CoalescesWithAnalyze: a /table/2 render and concurrent
// per-workload /analyze requests under the same Options must share one
// flight per workload — the Analyze-cache miss count stays bounded by the
// workload count (no duplicate simulations) and the profile store records
// no duplicate collections, no matter how many HTTP clients hammer the
// same keys while the table renders.
func TestTable2CoalescesWithAnalyze(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite table render; skipped in -short")
	}
	ts := newTestServer(t, Config{})
	experiment.InvalidateAnalysisCache()

	const q = "intervals=20&warmup=2&folds=3&seed=17"
	// Warm one of the table's workloads so the render demonstrably reuses
	// completed work as well as in-flight work.
	if code, body := get(t, ts.URL+"/analyze/odb-c?"+q); code != http.StatusOK {
		t.Fatalf("warmup /analyze/odb-c: %d (%s)", code, strings.TrimSpace(body))
	}
	base := experiment.AnalysisCacheStats()
	storeBase := experiment.ProfileStoreStats()

	tableDone := make(chan struct{})
	var tableCode int
	var tableBody string
	go func() {
		defer close(tableDone)
		tableCode, tableBody = get(t, ts.URL+"/table/2?"+q)
	}()

	// Hammer the same per-workload analyses while the table renders: every
	// one of these must be a cache hit or a singleflight join, never a
	// duplicate simulation.
	hammered := 0
	for done := false; !done; {
		select {
		case <-tableDone:
			done = true
		default:
			for _, w := range []string{"spec.gzip", "odb-c", "sjas"} {
				if code, _ := get(t, ts.URL+"/analyze/"+w+"?"+q); code != http.StatusOK {
					t.Fatalf("concurrent /analyze/%s: %d", w, code)
				}
				hammered++
			}
		}
	}
	if tableCode != http.StatusOK {
		t.Fatalf("/table/2: %d (%s)", tableCode, strings.TrimSpace(tableBody))
	}

	st := experiment.AnalysisCacheStats()
	misses := st.Misses - base.Misses
	// The table covers the full suite; odb-c was pre-warmed, so at most
	// suite-1 fresh flights — regardless of the hammering above. Any more
	// means a duplicate simulation ran for a key already cached or in
	// flight.
	suite := len(fuzzyphase.Workloads())
	if misses > uint64(suite-1) {
		t.Errorf("cache misses during table render = %d, want <= %d (duplicate flights)", misses, suite-1)
	}
	if st.Hits+st.Shared <= base.Hits+base.Shared {
		t.Errorf("no hits or joins recorded across %d concurrent analyses", hammered)
	}
	storeSt := experiment.ProfileStoreStats()
	if collects := storeSt.Misses - storeBase.Misses; collects > uint64(suite-1) {
		t.Errorf("profile collections during table render = %d, want <= %d (duplicate collects)", collects, suite-1)
	}
	t.Logf("table render: %d fresh flights, %d concurrent analyses, hits+shared +%d",
		misses, hammered, (st.Hits+st.Shared)-(base.Hits+base.Shared))
}
