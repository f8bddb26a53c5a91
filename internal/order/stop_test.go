package order

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/obs"
	"ocd/internal/relation"
)

func stopRelation(t *testing.T, rows int) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	data := make([][]int, rows)
	for i := range data {
		data[i] = []int{i, i / 3, rng.Intn(50)}
	}
	r, err := relation.FromIntsErr("stop", nil, data)
	if err != nil {
		t.Fatalf("FromIntsErr: %v", err)
	}
	return r
}

// TestCheckerStopAborts: a stop raised after the single-column partitions
// are cached still aborts every multi-column derivation and scan — checks
// report invalid conservatively and Partition returns nil — and clearing
// the flag restores correct answers, so no aborted scratch state leaks into
// later checks.
func TestCheckerStopAborts(t *testing.T) {
	r := stopRelation(t, 5000)
	c := NewPartitionChecker(r)
	var stop atomic.Bool
	c.SetStopFlag(&stop)
	x, y := attr.NewList(0), attr.NewList(1)
	if !c.CheckOD(x, y) {
		t.Fatal("A -> B must hold")
	}
	c.CheckOD(attr.NewList(2), y) // caches C's partition too

	stop.Store(true)
	if c.Partition(attr.NewList(1, 2)) != nil {
		t.Error("aborted Partition must return nil")
	}
	if c.CheckOCD(y, attr.NewList(2)) {
		t.Error("aborted CheckOCD must report invalid")
	}
	if c.CheckOD(x, y) {
		t.Error("aborted CheckOD must report invalid")
	}
	if res := c.CheckODFull(x, y); res.Valid || !res.HasSplit || !res.HasSwap {
		t.Errorf("aborted CheckODFull must report both violation kinds, got %+v", res)
	}

	stop.Store(false)
	if !c.CheckOD(x, y) {
		t.Error("A -> B (B = A/3) must hold once the stop flag clears")
	}
	if !c.CheckOCD(x, y) {
		t.Error("A ~ B must hold once the stop flag clears")
	}
	z := attr.NewList(2)
	if got, want := c.CheckOCD(y, z), NewPartitionChecker(r).CheckOCD(y, z); got != want {
		t.Errorf("B ~ C = %v after the stop cleared, a fresh checker says %v", got, want)
	}
}

// TestPartitionCheckerStopAborts mirrors TestCheckerStopAborts on the
// checker with a cold cache: the very first single-column derivation aborts,
// and no partial partition is cached.
func TestPartitionCheckerStopAborts(t *testing.T) {
	r := stopRelation(t, 3000)
	c := NewPartitionChecker(r)
	var stop atomic.Bool
	c.SetStopFlag(&stop)
	x, y := attr.NewList(0), attr.NewList(1)

	stop.Store(true)
	if c.Partition(attr.NewList(0, 1)) != nil {
		t.Error("aborted Partition must return nil")
	}
	if c.CheckOCD(x, y) || c.CheckOD(x, y) {
		t.Error("aborted partition checks must report invalid")
	}
	if res := c.CheckODFull(x, y); res.Valid || !res.HasSplit || !res.HasSwap {
		t.Errorf("aborted CheckODFull must report both violation kinds, got %+v", res)
	}

	stop.Store(false)
	if !c.CheckOD(x, y) || !c.CheckOCD(x, y) {
		t.Error("checks must succeed once the stop flag clears")
	}
}

// TestReleaseMemoryKeepsCheckersUsable: dropping the cache must not change
// any answer, only force re-derivations (visible as cache misses).
func TestReleaseMemoryKeepsCheckersUsable(t *testing.T) {
	r := stopRelation(t, 2000)
	x, y := attr.NewList(0), attr.NewList(1)
	reg := obs.NewRegistry()
	misses := func() int64 { return reg.Snapshot().Counters["order.partition_cache.misses"] }

	c := NewPartitionChecker(r)
	c.SetObs(reg)
	if !c.CheckOD(x, y) {
		t.Fatal("A -> B must hold")
	}
	before := misses()
	if c.CheckOD(x, y); misses() != before {
		t.Fatal("second check must hit the cache")
	}
	c.ReleaseMemory()
	if !c.CheckOD(x, y) || !c.CheckOCD(x, y) {
		t.Fatal("checks must still hold after ReleaseMemory")
	}
	if misses() == before {
		t.Fatal("ReleaseMemory must force a re-derivation")
	}
}
