package whatif

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fill computes-and-caches one entry, failing the test on error.
func fill(t *testing.T, c *Cache, key string, size int64, computes *atomic.Int32) (any, bool) {
	t.Helper()
	v, hit, err := c.Do(key, func() (any, int64, error) {
		if computes != nil {
			computes.Add(1)
		}
		return "val:" + key, size, nil
	})
	if err != nil {
		t.Fatalf("Do(%q): %v", key, err)
	}
	return v, hit
}

func TestCacheLRUEvictionRespectsBudget(t *testing.T) {
	c := NewCache(100)
	var computes atomic.Int32

	fill(t, c, "a", 40, &computes)
	fill(t, c, "b", 40, &computes)
	fill(t, c, "c", 40, &computes) // 120 > 100: evicts a (LRU)

	st := c.Stats()
	if st.UsedBytes > st.BudgetBytes {
		t.Fatalf("used %d exceeds budget %d", st.UsedBytes, st.BudgetBytes)
	}
	if st.Entries != 2 || st.Evictions != 1 || st.UsedBytes != 80 {
		t.Fatalf("after 3 inserts: entries=%d evictions=%d used=%d, want 2/1/80", st.Entries, st.Evictions, st.UsedBytes)
	}

	// a was evicted: recomputes. b and c are resident: hits.
	if _, hit := fill(t, c, "a", 40, &computes); hit {
		t.Fatal("evicted entry served as a hit")
	}
	// Inserting a evicted b (LRU after c touched nothing... order: b,c,a front).
	// Touch c (hit), then insert d: evicts the current LRU, never the fresh entry.
	if _, hit := fill(t, c, "c", 40, &computes); !hit {
		t.Fatal("resident entry missed")
	}
	fill(t, c, "d", 40, &computes)
	st = c.Stats()
	if st.UsedBytes > 100 {
		t.Fatalf("used %d exceeds budget after churn", st.UsedBytes)
	}
	if _, hit := fill(t, c, "c", 40, &computes); !hit {
		t.Fatal("most-recently-used entry was evicted instead of the LRU one")
	}
	if got := computes.Load(); got != 5 {
		t.Fatalf("computes = %d, want 5 (a,b,c cold, a recomputed, d cold)", got)
	}
}

func TestCacheOversizeEntryNotRetained(t *testing.T) {
	c := NewCache(100)
	fill(t, c, "small", 40, nil)
	v, hit := fill(t, c, "huge", 150, nil)
	if v != "val:huge" || hit {
		t.Fatalf("oversize entry: got (%v, hit=%v), want computed value, no hit", v, hit)
	}
	st := c.Stats()
	if st.Entries != 1 || st.UsedBytes != 40 || st.Evictions != 0 {
		t.Fatalf("oversize entry disturbed the cache: %+v", st)
	}
	if _, hit := fill(t, c, "huge", 150, nil); hit {
		t.Fatal("oversize entry was retained")
	}
}

func TestCacheDisabled(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		c := NewCache(budget)
		var computes atomic.Int32
		fill(t, c, "k", 10, &computes)
		if _, hit := fill(t, c, "k", 10, &computes); hit {
			t.Fatalf("budget %d: disabled cache served a hit", budget)
		}
		if computes.Load() != 2 {
			t.Fatalf("budget %d: computes = %d, want 2", budget, computes.Load())
		}
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(100)
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("Do error = %v, want boom", err)
	}
	var computes atomic.Int32
	if _, hit := fill(t, c, "k", 10, &computes); hit || computes.Load() != 1 {
		t.Fatal("failed computation was cached")
	}
}

// TestCacheCoalesce pins the singleflight contract: N concurrent Do calls
// for one key pay for exactly one computation and count N-1 hits.
func TestCacheCoalesce(t *testing.T) {
	c := NewCache(1 << 20)
	const N = 8
	var computes atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan any, 1)
	go func() {
		v, _, _ := c.Do("k", func() (any, int64, error) {
			computes.Add(1)
			close(entered)
			<-release
			return "shared", 8, nil
		})
		leaderDone <- v
	}()
	<-entered // the leader owns the in-flight slot before any follower starts

	var wg sync.WaitGroup
	vals := make([]any, N-1)
	hits := make([]bool, N-1)
	for i := 0; i < N-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Do("k", func() (any, int64, error) {
				computes.Add(1)
				return "follower", 8, nil
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			vals[i], hits[i] = v, hit
		}(i)
	}
	close(release)
	wg.Wait()
	if v := <-leaderDone; v != "shared" {
		t.Fatalf("leader value = %v", v)
	}
	for i := range vals {
		if vals[i] != "shared" || !hits[i] {
			t.Fatalf("follower %d: (%v, hit=%v), want coalesced hit on \"shared\"", i, vals[i], hits[i])
		}
	}
	if computes.Load() != 1 {
		t.Fatalf("computes = %d, want 1 for %d concurrent callers", computes.Load(), N)
	}
	if st := c.Stats(); st.Hits != N-1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want %d hits / 1 miss", st, N-1)
	}
}

// TestCachePanicReleasesWaiters pins the cleanup path: a panicking
// computation must not strand coalesced waiters or wedge the key.
func TestCachePanicReleasesWaiters(t *testing.T) {
	c := NewCache(1 << 20)
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		c.Do("k", func() (any, int64, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered

	follower := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", func() (any, int64, error) { return "fresh", 1, nil })
		follower <- err
	}()
	time.Sleep(10 * time.Millisecond) // give the follower time to join the flight
	close(release)

	// Either outcome is sound: the follower was coalesced and got the
	// panic error, or it arrived after cleanup and computed fresh. What it
	// must never do is block forever.
	select {
	case <-follower:
	case <-time.After(5 * time.Second):
		t.Fatal("follower stranded after leader panic")
	}

	// The key must be usable again.
	v, _, err := c.Do("k", func() (any, int64, error) { return "after", 1, nil })
	if err != nil || (v != "after" && v != "fresh") {
		t.Fatalf("key wedged after panic: v=%v err=%v", v, err)
	}
}

func TestCacheKeyDistinct(t *testing.T) {
	// Length-prefixed parts: ("ab","c") and ("a","bc") must not collide.
	a := cacheKey("k", []byte("ab"), []byte("c"))
	b := cacheKey("k", []byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("part boundaries not encoded: concatenation collision")
	}
	if cacheKey("scenario", []byte("x")) == cacheKey("trace", []byte("x")) {
		t.Fatal("query kind not part of the key")
	}
	for i, k := range []string{a, b} {
		if len(k) != 64 {
			t.Fatalf("key %d: %q is not a hex sha256", i, k)
		}
	}
}
