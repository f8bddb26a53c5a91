//go:build faultinject

package order

import (
	"math/rand"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/faultinject"
)

// checkAllAgainst runs a fixed check workload on both checkers and fails
// on any divergence — the "never wrong results" clause of the spill
// degradation ladder.
func checkAllAgainst(t *testing.T, spilled, mem *PartitionChecker, lists []attr.List) {
	t.Helper()
	for i, x := range lists {
		for j, y := range lists {
			if got, want := spilled.CheckOD(x, y), mem.CheckOD(x, y); got != want {
				t.Fatalf("(%d,%d): CheckOD = %v, want %v", i, j, got, want)
			}
			if got, want := spilled.CheckOCD(x, y), mem.CheckOCD(x, y); got != want {
				t.Fatalf("(%d,%d): CheckOCD = %v, want %v", i, j, got, want)
			}
		}
	}
}

func spillWorkload(seed int64) (lists []attr.List, rng *rand.Rand) {
	rng = rand.New(rand.NewSource(seed))
	for i := 0; i < 12; i++ {
		lists = append(lists, randomList(rng, 4, 2))
	}
	return lists, rng
}

// TestSpillReadFaultsDegradeToRecompute: every spill read fails; the
// checker must fall back to recomputing from rank codes with exact
// results, counting retries and recomputes.
func TestSpillReadFaultsDegradeToRecompute(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	lists, rng := spillWorkload(91)
	r := randomRelation(rng, 50, 4, 3)
	mem := NewPartitionChecker(r)
	spilled := NewPartitionChecker(r)
	spilled.SetSpill(newTestSpill(t))

	faultinject.Arm("spill.read", faultinject.Rule{Action: faultinject.ActionErr, EveryK: 1})
	checkAllAgainst(t, spilled, mem, lists)
	if spilled.EvictToSpill() == 0 {
		t.Fatal("EvictToSpill moved nothing despite a warm cache")
	}
	checkAllAgainst(t, spilled, mem, lists) // this pass would reload if reads worked
	if _, rel := spilled.SpillStats(); rel != 0 {
		t.Errorf("reloads = %d with every read failing, want 0", rel)
	}
}

// TestSpillWriteFaultsDegradeGracefully: every spill write fails (ENOSPC,
// say); evictions silently become plain drops and results stay exact.
func TestSpillWriteFaultsDegradeGracefully(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	lists, rng := spillWorkload(92)
	r := randomRelation(rng, 50, 4, 3)
	mem := NewPartitionChecker(r)
	spilled := NewPartitionChecker(r)
	spilled.SetSpill(newTestSpill(t))

	faultinject.Arm("spill.write", faultinject.Rule{Action: faultinject.ActionErr, EveryK: 1})
	checkAllAgainst(t, spilled, mem, lists)
	// With writes failing everywhere, EvictToSpill reports no progress —
	// the signal that lets the engine move to the next ladder rung.
	if n := spilled.EvictToSpill(); n != 0 {
		t.Errorf("EvictToSpill = %d under total write failure, want 0", n)
	}
	if ev, _ := spilled.SpillStats(); ev != 0 {
		t.Errorf("evictions = %d with every write failing, want 0", ev)
	}
	// The unspilled partitions were dropped; checks recompute them exactly.
	checkAllAgainst(t, spilled, mem, lists)
}

// TestSpillTornSegmentsRecompute: every segment is torn on disk; reloads
// fail verification, the segments are dropped, and recompute keeps the
// answers exact.
func TestSpillTornSegmentsRecompute(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	lists, rng := spillWorkload(93)
	r := randomRelation(rng, 50, 4, 3)
	mem := NewPartitionChecker(r)
	spilled := NewPartitionChecker(r)
	sm := newTestSpill(t)
	spilled.SetSpill(sm)

	faultinject.Arm("spill.write.torn", faultinject.Rule{Action: faultinject.ActionErr, EveryK: 1})
	checkAllAgainst(t, spilled, mem, lists)
	spilled.EvictToSpill()
	faultinject.Reset()
	// Everything spilled so far is torn; the second pass must detect each
	// tear, drop the segment, and recompute.
	checkAllAgainst(t, spilled, mem, lists)
}

// TestSpillBitRotRecomputes: single-bit corruption on the read path is
// caught by the checksum; results stay exact.
func TestSpillBitRotRecomputes(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	lists, rng := spillWorkload(94)
	r := randomRelation(rng, 50, 4, 3)
	mem := NewPartitionChecker(r)
	spilled := NewPartitionChecker(r)
	spilled.SetSpill(newTestSpill(t))

	checkAllAgainst(t, spilled, mem, lists)
	spilled.EvictToSpill()
	faultinject.Arm("spill.read.corrupt", faultinject.Rule{Action: faultinject.ActionErr, EveryK: 2})
	checkAllAgainst(t, spilled, mem, lists)
}

// TestSpillTransientReadFaultRetries: an every-other-read fault is healed
// by the retry rung; reloads still happen.
func TestSpillTransientReadFaultRetries(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	lists, rng := spillWorkload(95)
	r := randomRelation(rng, 50, 4, 3)
	mem := NewPartitionChecker(r)
	spilled := NewPartitionChecker(r)
	spilled.SetSpill(newTestSpill(t))

	checkAllAgainst(t, spilled, mem, lists)
	spilled.EvictToSpill()
	faultinject.Arm("spill.read", faultinject.Rule{Action: faultinject.ActionErr, EveryK: 2})
	checkAllAgainst(t, spilled, mem, lists)
	if _, rel := spilled.SpillStats(); rel == 0 {
		t.Error("no reloads despite the retry rung healing every-other-read faults")
	}
}
