package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

type value struct{ n int }

func newValue() *value { return &value{} }

func ok(context.Context) (*value, error) { return newValue(), nil }

// TestCacheInFlightNotCountedAsEntries is the regression test for the
// stats bug where in-flight singleflight slots inflated Entries: a running
// computation must show up in InFlight, not Entries, and move over only
// when it completes and is retained.
func TestCacheInFlightNotCountedAsEntries(t *testing.T) {
	c := New[*value](nil)
	started := make(chan struct{})
	release := make(chan struct{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := c.Get(context.Background(), "k", func(context.Context) (*value, error) {
			close(started)
			<-release
			return newValue(), nil
		})
		if err != nil {
			t.Errorf("Get: %v", err)
		}
	}()

	<-started
	st := c.Stats()
	if st.Entries != 0 {
		t.Errorf("Entries = %d during flight, want 0 (in-flight slots must not count)", st.Entries)
	}
	if st.InFlight != 1 {
		t.Errorf("InFlight = %d during flight, want 1", st.InFlight)
	}

	close(release)
	<-done
	st = c.Stats()
	if st.Entries != 1 || st.InFlight != 0 {
		t.Errorf("after completion Entries=%d InFlight=%d, want 1, 0", st.Entries, st.InFlight)
	}
}

// TestCacheFailedFlightStaysTruthful is the regression test for the
// ordering bug where a failed flight closed done before the entry was
// deleted, letting a racing caller count a "hit" against a result that was
// never retained. Errors must never be cached, every retry must be a miss,
// and Hits must stay zero until a flight actually succeeds.
func TestCacheFailedFlightStaysTruthful(t *testing.T) {
	c := New[*value](nil)
	boom := errors.New("pipeline exploded")
	calls := 0

	for i := 0; i < 2; i++ {
		_, err := c.Get(context.Background(), "k", func(context.Context) (*value, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("attempt %d: err = %v, want %v", i, err, boom)
		}
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (errors must not be cached)", calls)
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 2 || st.Entries != 0 || st.InFlight != 0 {
		t.Fatalf("after failures: %+v, want 0 hits, 2 misses, 0 entries, 0 in flight", st)
	}
	if c.Available("k", false) {
		t.Fatal("failed flight still reported available")
	}

	// A succeeding retry is retained and only then produces hits.
	if _, err := c.Get(context.Background(), "k", ok); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(context.Background(), "k", nil); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 1 {
		t.Fatalf("after recovery: %+v, want 1 hit, 3 misses, 1 entry", st)
	}
	if !c.Available("k", true) {
		t.Fatal("retained entry not reported available")
	}
}

// TestCacheLRUBound sweeps more distinct keys than the cap and checks the
// bound holds at every step, evictions are counted, and recency decides
// the victims.
func TestCacheLRUBound(t *testing.T) {
	c := New(func(*value) int64 { return 10 })
	c.SetCap(3)

	put := func(key string) {
		t.Helper()
		if _, err := c.Get(context.Background(), key, ok); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("k%d", i))
		if st := c.Stats(); st.Entries > 3 {
			t.Fatalf("after %d inserts: Entries = %d exceeds cap 3", i+1, st.Entries)
		}
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 7 || st.CostBytes != 30 {
		t.Fatalf("stats %+v, want 3 entries, 7 evictions, 30 cost bytes", st)
	}

	// k7..k9 survive; touching k7 makes k8 the LRU victim of the next insert.
	hitsBefore := st.Hits
	put("k7")
	if st := c.Stats(); st.Hits != hitsBefore+1 {
		t.Fatalf("re-get of retained k7 was not a hit: %+v", st)
	}
	put("k10")
	missesBefore := c.Stats().Misses
	put("k8") // evicted above: must recompute
	if st := c.Stats(); st.Misses != missesBefore+1 {
		t.Fatalf("get of evicted k8 was not a miss: %+v", st)
	}

	// Lowering the cap evicts immediately; 0 removes the bound.
	if prev := c.SetCap(1); prev != 3 {
		t.Fatalf("SetCap returned prev %d, want 3", prev)
	}
	if st := c.Stats(); st.Entries != 1 || st.CapEntries != 1 || st.CostBytes != 10 {
		t.Fatalf("after cap=1: %+v", st)
	}
	c.SetCap(0)
	put("k11")
	put("k12")
	if st := c.Stats(); st.Entries != 3 {
		t.Fatalf("unbounded again, want 3 entries: %+v", st)
	}

	// Reset drops every entry and its cost but keeps the counters.
	hitsBefore = c.Stats().Hits
	c.Reset()
	if st := c.Stats(); st.Entries != 0 || st.CostBytes != 0 || st.Hits != hitsBefore {
		t.Fatalf("after Reset: %+v", st)
	}
}

// TestCacheWaiterDetachKeepsFlightAlive: with two waiters on one flight,
// one waiter timing out must detach alone — the survivor still gets the
// result and the flight's context is never cancelled.
func TestCacheWaiterDetachKeepsFlightAlive(t *testing.T) {
	c := New[*value](nil)
	started := make(chan struct{})
	release := make(chan struct{})
	var flightCtx context.Context

	var wg sync.WaitGroup
	wg.Add(1)
	var survivorRes *value
	var survivorErr error
	go func() {
		defer wg.Done()
		survivorRes, survivorErr = c.Get(context.Background(), "k", func(ctx context.Context) (*value, error) {
			flightCtx = ctx
			close(started)
			<-release
			return newValue(), ctx.Err()
		})
	}()
	<-started

	// Second caller joins the flight, then gives up.
	ctx, cancel := context.WithCancel(context.Background())
	joined := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(joined)
		if _, err := c.Get(ctx, "k", nil); !errors.Is(err, context.Canceled) {
			t.Errorf("impatient waiter: err = %v, want context.Canceled", err)
		}
	}()
	<-joined
	// Wait until the second caller is registered as a waiter before
	// cancelling it, so the detach path (not the pre-check) is exercised.
	waitFor(t, func() bool { return waiters(c, "k") == 2 })
	cancel()
	waitFor(t, func() bool { return waiters(c, "k") == 1 })

	if flightCtx.Err() != nil {
		t.Fatal("flight context cancelled even though a waiter remains")
	}
	if !c.Available("k", false) || c.Available("k", true) {
		t.Fatal("live flight must be joinable but not completed")
	}
	close(release)
	wg.Wait()
	if survivorErr != nil || survivorRes == nil {
		t.Fatalf("surviving waiter: res=%v err=%v", survivorRes, survivorErr)
	}
	st := c.Stats()
	if st.Shared != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 shared, 1 entry", st)
	}
}

// TestCacheLastWaiterCancelAbortsFlight: when every waiter detaches, the
// flight's context is cancelled, the doomed slot is neither joined nor
// retained, and the next Get starts a fresh flight.
func TestCacheLastWaiterCancelAbortsFlight(t *testing.T) {
	c := New[*value](nil)
	started := make(chan struct{})
	aborted := make(chan struct{})
	unwind := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := c.Get(ctx, "k", func(ctx context.Context) (*value, error) {
			close(started)
			<-ctx.Done() // cooperative computation: observes the abort
			close(aborted)
			<-unwind
			return nil, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	<-started
	doomed := slot(c, "k")
	cancel()
	<-done
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context was not cancelled after its only waiter left")
	}

	// The doomed flight has not unwound yet: it must not be offered for
	// joining, and the next Get replaces it with a fresh flight.
	if c.Available("k", false) {
		t.Fatal("aborted flight reported joinable")
	}
	res, err := c.Get(context.Background(), "k", ok)
	if err != nil || res == nil {
		t.Fatalf("fresh flight after abort: res=%v err=%v", res, err)
	}
	close(unwind)
	<-doomed.done

	// The doomed flight's late finish must not displace the fresh entry.
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 || st.Shared != 0 || st.Entries != 1 || st.InFlight != 0 {
		t.Fatalf("stats %+v, want 0 hits, 2 misses, 0 shared, 1 entry, 0 in flight", st)
	}
	if got, _ := c.Get(context.Background(), "k", nil); got != res {
		t.Fatal("retained entry is not the fresh flight's value")
	}
}

// TestCacheSharedFlight: concurrent callers of one key run the computation
// exactly once and all receive the same value.
func TestCacheSharedFlight(t *testing.T) {
	c := New[*value](nil)
	calls := 0
	gate := make(chan struct{})
	first := newValue()

	const callers = 8
	results := make([]*value, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Get(context.Background(), "k", func(context.Context) (*value, error) {
				calls++ // safe: only one flight can run
				<-gate
				return first, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = res
		}(i)
	}
	waitFor(t, func() bool {
		st := c.Stats()
		return st.Misses == 1 && st.Shared == callers-1
	})
	close(gate)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	for i, res := range results {
		if res != first {
			t.Fatalf("caller %d got a different value", i)
		}
	}
}

// TestCachePreCancelledContext: a context that is already dead never
// touches the cache.
func TestCachePreCancelledContext(t *testing.T) {
	c := New[*value](nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, "k", func(context.Context) (*value, error) {
		t.Fatal("fn ran despite dead context")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("dead context touched counters: %+v", st)
	}
}

// TestCacheHitDoesNotAllocate pins the hit path every hot serve read
// takes: a Get answered from a completed entry allocates nothing.
func TestCacheHitDoesNotAllocate(t *testing.T) {
	c := New(func(*value) int64 { return 1 })
	ctx := context.Background()
	if _, err := c.Get(ctx, "k", ok); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "other", ok); err != nil {
		t.Fatal(err) // a second entry, so the hit really moves an LRU node
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := c.Get(ctx, "k", ok); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(ctx, "other", ok); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %.1f times per call pair, want 0", allocs)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (every measured call must be a hit)", st.Misses)
	}
}

// slot returns key's current slot.
func slot(c *Cache[*value], key string) *call[*value] {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key]
}

// waiters reads the waiter count of key's slot.
func waiters(c *Cache[*value], key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key].waiters
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
