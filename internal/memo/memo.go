// Package memo is a string-keyed memo table: a context-aware, waiter-
// refcounted singleflight in front of a bounded LRU of completed results.
// It is the one engine behind both process-wide caches — the Analyze
// result cache (package experiment) and the profile store's memory tier
// (package profstore).
//
// Invariants, each locked by a test in memo_test.go:
//
//  1. Flights outlive individual callers. Every flight runs on its own
//     context, detached from any single caller. A waiter whose context
//     expires detaches alone; the flight is cancelled only when its last
//     waiter has detached, so one impatient caller can never abort work
//     another caller is still waiting on.
//  2. Failures and aborts are never retained. A failed flight's entry is
//     deleted before its done channel closes, under the same mutex that
//     admits waiters, so a hit is only ever counted against a completed,
//     retained result and the counters stay truthful.
//  3. Doomed flights are replaced, not joined. A slot whose flight was
//     aborted by waiter abandonment is marked; the next caller starts a
//     fresh flight instead of inheriting a guaranteed cancellation error.
//  4. Retention is bounded. Completed results live on an LRU capped by
//     SetCap (0, the default, keeps every entry). In-flight computations
//     are never evicted.
//
// Values are shared between callers and must be treated as immutable.
package memo

import (
	"container/list"
	"context"
	"sync"
)

// Stats is a snapshot of a Cache's counters.
type Stats struct {
	// Hits counts Gets answered from a completed, retained entry.
	Hits uint64
	// Misses counts Gets that started a fresh flight.
	Misses uint64
	// Shared counts Gets that joined an in-flight computation of the same
	// key instead of duplicating it.
	Shared uint64
	// Evictions counts completed entries dropped by the LRU cap.
	Evictions uint64
	// Entries is the number of completed results retained; InFlight the
	// number of computations running.
	Entries  int
	InFlight int
	// CostBytes sums the cost function over retained entries.
	CostBytes int64
	// CapEntries is the entry cap (0 = unbounded).
	CapEntries int
}

// call is one cache slot: done is closed when the flight finishes, after
// which val/err are immutable. waiters/aborted/elem are guarded by the
// owning cache's mutex.
type call[V any] struct {
	key  string
	done chan struct{}
	val  V
	err  error
	cost int64

	// waiters counts callers currently blocked on done. When the last
	// waiter detaches before completion, the flight's context is cancelled.
	waiters int
	// aborted marks a flight cancelled by waiter abandonment; new callers
	// replace the slot instead of joining it.
	aborted bool
	cancel  context.CancelFunc
	// elem is the entry's LRU node while retained, nil otherwise.
	elem *list.Element
}

// Cache memoizes values of type V by string key. The zero value is not
// usable; call New.
type Cache[V any] struct {
	costOf func(V) int64

	mu      sync.Mutex
	entries map[string]*call[V]
	lru     *list.List // completed entries; front = most recently used
	cap     int        // max completed entries retained; 0 = unbounded
	cost    int64      // summed costOf of retained entries

	hits, misses, shared, evictions uint64
}

// New returns an empty, unbounded cache. cost, if non-nil, approximates
// the heap a retained value keeps alive; Stats.CostBytes sums it over the
// retained entries.
func New[V any](cost func(V) int64) *Cache[V] {
	return &Cache[V]{costOf: cost, entries: map[string]*call[V]{}, lru: list.New()}
}

// Get returns the memoized value for key, computing it with fn on a miss.
// fn runs on a flight-owned context that is cancelled only when every
// waiter has detached; it is never the caller's ctx, so a flight outlives
// any individual caller that still has company. Errors are returned to
// every waiter of the failing flight but never cached: the next call
// retries with a fresh flight. fn is not called on a hit or a join.
func (c *Cache[V]) Get(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		var zero V
		return zero, err
	}

	c.mu.Lock()
	if cl, ok := c.entries[key]; ok {
		select {
		case <-cl.done:
			// done is only closed (under this lock) after failed flights
			// have been removed from the map, so a completed entry found
			// here is always a retained success — a true hit.
			c.hits++
			c.lru.MoveToFront(cl.elem)
			c.mu.Unlock()
			return cl.val, cl.err
		default:
			if !cl.aborted {
				c.shared++
				cl.waiters++
				c.mu.Unlock()
				return c.wait(ctx, cl)
			}
			// The slot holds a doomed flight (cancelled by waiter
			// abandonment, not yet unwound). Replace it; its finish
			// no-ops on the map because the pointer differs.
		}
	}
	flight, cancel := context.WithCancel(context.Background())
	cl := &call[V]{key: key, done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.entries[key] = cl
	c.misses++
	c.mu.Unlock()

	go func() {
		v, err := fn(flight)
		c.finish(cl, v, err)
	}()
	return c.wait(ctx, cl)
}

// wait blocks until cl completes or ctx expires. An expired waiter
// detaches; the last waiter to detach aborts the flight.
func (c *Cache[V]) wait(ctx context.Context, cl *call[V]) (V, error) {
	select {
	case <-cl.done:
		return cl.val, cl.err
	case <-ctx.Done():
		c.mu.Lock()
		select {
		case <-cl.done:
			// Completed while we were cancelling: serve the result anyway.
			c.mu.Unlock()
			return cl.val, cl.err
		default:
		}
		cl.waiters--
		if cl.waiters == 0 {
			cl.aborted = true
			cl.cancel()
		}
		c.mu.Unlock()
		var zero V
		return zero, ctx.Err()
	}
}

// finish publishes a flight's outcome. Successful flights are retained on
// the LRU (unless a Reset or an abort replaced the slot mid-flight);
// failed flights are removed from the map before done is closed.
func (c *Cache[V]) finish(cl *call[V], v V, err error) {
	cl.val, cl.err = v, err
	c.mu.Lock()
	if c.entries[cl.key] == cl {
		if err == nil {
			if c.costOf != nil {
				cl.cost = c.costOf(v)
			}
			cl.elem = c.lru.PushFront(cl)
			c.cost += cl.cost
			c.evictLocked()
		} else {
			delete(c.entries, cl.key)
		}
	}
	close(cl.done)
	c.mu.Unlock()
	cl.cancel() // release the flight context's resources
}

// evictLocked trims the LRU to the entry cap. Caller holds c.mu.
func (c *Cache[V]) evictLocked() {
	if c.cap <= 0 {
		return
	}
	for c.lru.Len() > c.cap {
		victim := c.lru.Remove(c.lru.Back()).(*call[V])
		victim.elem = nil
		c.cost -= victim.cost
		// Only in-flight slots are ever replaced, so a retained victim
		// is still its key's entry.
		delete(c.entries, victim.key)
		c.evictions++
	}
}

// Available reports whether Get(key) would be answered without starting a
// new flight: a completed retained entry, or (unless completedOnly) a
// joinable in-flight one. Purely advisory — the entry can complete, fail,
// or be evicted before a subsequent Get — so callers may only use it for
// scheduling decisions, never correctness.
func (c *Cache[V]) Available(key string, completedOnly bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.entries[key]
	if !ok {
		return false
	}
	select {
	case <-cl.done:
		return true
	default:
		return !completedOnly && !cl.aborted
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:       c.hits,
		Misses:     c.misses,
		Shared:     c.shared,
		Evictions:  c.evictions,
		Entries:    c.lru.Len(),
		InFlight:   len(c.entries) - c.lru.Len(), // every other entry is in flight
		CostBytes:  c.cost,
		CapEntries: c.cap,
	}
}

// SetCap bounds the cache to at most n completed entries, evicting
// least-recently-used ones immediately if it is over the bound, and
// returns the previous cap. n <= 0 removes the bound.
func (c *Cache[V]) SetCap(n int) int {
	if n < 0 {
		n = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.cap
	c.cap = n
	c.evictLocked()
	return prev
}

// Reset drops every entry; the counters keep accumulating. In-flight
// computations finish and hand their value to their current waiters, but
// are not re-admitted.
func (c *Cache[V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*call[V]{}
	c.lru = list.New()
	c.cost = 0
}
