package core

import (
	"runtime"
	"testing"
	"time"

	"ocd/internal/obs"
)

// TestOptionsWorkersNormalization pins the Workers contract: values
// below 1 resolve to runtime.GOMAXPROCS(0).
func TestOptionsWorkersNormalization(t *testing.T) {
	if got := (Options{Workers: 0}).workers(); got != 0 {
		t.Errorf("Workers 0 should defer resolution, got %d", got)
	}
	if got := (Options{Workers: -3}).workers(); got != 0 {
		t.Errorf("Workers -3 should defer resolution, got %d", got)
	}
	if got := (Options{Workers: 5}).workers(); got != 5 {
		t.Errorf("Workers 5 should pass through, got %d", got)
	}
	r := seededRelation(t, 3, 20, 3)
	for _, w := range []int{0, -1} {
		d := newDiscoverer(r, Options{Workers: w})
		if d.workers != runtime.GOMAXPROCS(0) {
			t.Errorf("Workers %d should resolve to GOMAXPROCS (%d), got %d",
				w, runtime.GOMAXPROCS(0), d.workers)
		}
	}
	d := newDiscoverer(r, Options{Workers: 2})
	if d.workers != 2 {
		t.Errorf("Workers 2 should stick, got %d", d.workers)
	}
}

// TestOptionsDefaultCachesSingleColumns pins the checker the default
// discoverer builds: it caches the partition of each single column, so a
// repeated column is a hit, and longer lists derive from their first
// column's slot without adding cache entries.
func TestOptionsDefaultCachesSingleColumns(t *testing.T) {
	r := seededRelation(t, 4, 30, 3)
	reg := obs.NewRegistry()
	d := newDiscoverer(r, Options{Metrics: reg})
	counts := func() (int64, int64) {
		s := reg.Snapshot()
		return s.Counters[MetricPartitionCacheHits], s.Counters[MetricPartitionCacheMisses]
	}
	d.chk.CheckOD(ids(1), ids(2))
	d.chk.CheckOD(ids(2), ids(1))
	d.chk.CheckOD(ids(1), ids(0))
	if hits, misses := counts(); hits != 1 || misses != 2 {
		t.Errorf("single-column lookups: %d hits, %d misses, want 1 and 2", hits, misses)
	}
	d.chk.CheckOCD(ids(1, 2), ids(0))
	d.chk.CheckOD(ids(2, 1), ids(0))
	if hits, misses := counts(); hits != 3 || misses != 2 {
		t.Errorf("multi-column lists: %d hits, %d misses, want 3 and 2", hits, misses)
	}
}

// TestOptionsTimeoutExpiry drives a run whose deadline is already in
// the past: the traversal must stop at the level boundary, mark the
// result truncated, and still return the reduction-phase output in
// canonical, sound form.
func TestOptionsTimeoutExpiry(t *testing.T) {
	r := seededRelation(t, 5, 120, 6)
	res := Discover(r, Options{Workers: 4, Timeout: time.Nanosecond})
	if !res.Stats.Truncated {
		t.Fatal("expired deadline must mark the result truncated")
	}
	if res.Stats.Levels != 0 {
		t.Errorf("no level should complete under an expired deadline, got %d", res.Stats.Levels)
	}
	if res.Stats.Candidates == 0 {
		t.Error("initial candidates should still be counted")
	}
	if len(res.Constants) == 0 {
		t.Error("reduction phase should still report the constant column")
	}
	if len(res.EquivClasses) == 0 {
		t.Error("reduction phase should still report the order-equivalence class")
	}
	assertWellFormed(t, r, res)
}
