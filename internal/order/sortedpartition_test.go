package order

import (
	"math/rand"
	"sort"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/relation"
)

func TestBasePartition(t *testing.T) {
	sp := Base(4)
	if sp.NumClasses() != 1 || len(sp.Idx) != 4 {
		t.Fatalf("Base(4) = %+v", sp)
	}
	if e := Base(0); e.NumClasses() != 0 {
		t.Error("Base(0) should have no classes")
	}
}

func TestExtendMatchesFreshSort(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 80; trial++ {
		nr, nc := 1+rng.Intn(60), 1+rng.Intn(4)
		rows := make([][]int, nr)
		for i := range rows {
			rows[i] = make([]int, nc)
			for j := range rows[i] {
				rows[i][j] = rng.Intn(4)
			}
		}
		r := relation.FromInts("t", nil, rows)
		var x attr.List
		sp := Base(nr)
		for _, p := range rng.Perm(nc)[:1+rng.Intn(nc)] {
			x = append(x, attr.ID(p))
			sp = sp.Extend(r, attr.ID(p))
		}
		// order must match the reference comparison sort
		want := referenceSort(r, x)
		for i := range want {
			if sp.Idx[i] != want[i] {
				t.Fatalf("trial %d: partition order %v != %v for %v", trial, sp.Idx, want, x)
			}
		}
		// classes must be exactly the maximal equal runs
		start := 0
		for _, end := range sp.Ends {
			for i := start + 1; i < int(end); i++ {
				if CompareRows(r, int(sp.Idx[start]), int(sp.Idx[i]), x) != 0 {
					t.Fatalf("trial %d: class not equal on %v", trial, x)
				}
			}
			if int(end) < len(sp.Idx) &&
				CompareRows(r, int(sp.Idx[end-1]), int(sp.Idx[end]), x) == 0 {
				t.Fatalf("trial %d: boundary splits an equal run", trial)
			}
			start = int(end)
		}
	}
}

// TestPartitionCheckerAgreesWithChecker: CheckOD and CheckOCD agree with
// the pairwise reference of Definition 2.1, which shares no sorting code
// with the kernel.
func TestPartitionCheckerAgreesWithChecker(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	for trial := 0; trial < 150; trial++ {
		r := randomRelation(rng, 2+rng.Intn(25), 4, 1+rng.Intn(4))
		pc := NewPartitionChecker(r)
		x := randomList(rng, 4, 2)
		y := randomList(rng, 4, 2)
		if got, want := pc.CheckOD(x, y), bruteOD(r, x, y); got != want {
			t.Fatalf("trial %d: CheckOD(%v,%v) = %v, brute = %v", trial, x, y, got, want)
		}
		if got, want := pc.CheckOCD(x, y), bruteOCD(r, x, y); got != want {
			t.Fatalf("trial %d: CheckOCD(%v,%v) = %v, brute = %v", trial, x, y, got, want)
		}
	}
}

// TestPartitionCheckerPrefixReuse: lists derived from a cached first column
// match a fresh sort, and the scratch buffers one derivation leaves in the
// pool never leak into the next one's answer.
func TestPartitionCheckerPrefixReuse(t *testing.T) {
	r := randomRelation(rand.New(rand.NewSource(227)), 100, 4, 3)
	pc := NewPartitionChecker(r)
	for _, x := range []attr.List{
		attr.NewList(0, 1), attr.NewList(0, 1, 2), attr.NewList(0, 3), attr.NewList(0, 1), attr.NewList(0),
	} {
		got := pc.Partition(x)
		want := referenceSort(r, x)
		for i := range want {
			if got.Idx[i] != want[i] {
				t.Fatalf("Partition(%v).Idx = %v, want %v", x, got.Idx, want)
			}
		}
	}
	// Partition returns a copy: mutating it must not reach the cache.
	p := pc.Partition(attr.NewList(0))
	p.Idx[0], p.Idx[1] = p.Idx[1], p.Idx[0]
	if q := pc.Partition(attr.NewList(0)); q.Idx[0] == p.Idx[0] && q.Idx[1] == p.Idx[1] {
		t.Error("Partition handed out the cached partition")
	}
}

// TestPartitionOnRowSlices pins the sparse-code case: HeadRows and
// SelectRows keep the parent's code space, so a slice can hold codes far
// beyond its own distinct count; the counting sort must size its counters
// by the codes actually present.
func TestPartitionOnRowSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(199))
	rows := make([][]int, 10000)
	for i := range rows {
		rows[i] = []int{rng.Intn(1000000), rng.Intn(100)}
	}
	r := relation.FromInts("big", []string{"A", "B"}, rows)
	x := attr.NewList(1, 0)
	for _, s := range []*relation.Relation{r.HeadRows(6000), r.SelectRows([]int{9999, 0, 5000, 42, 4999, 7777})} {
		got := NewPartitionChecker(s).Partition(x)
		want := referenceSort(s, x)
		for i := range want {
			if got.Idx[i] != want[i] {
				t.Fatalf("%d-row slice: partition diverges at %d", s.NumRows(), i)
			}
		}
	}
}

func TestPartitionCheckerEmptyAndNulls(t *testing.T) {
	r, err := relation.FromStrings("t", []string{"A", "B"}, [][]string{
		{"", "1"}, {"", "1"}, {"1", "2"}, {"2", "3"},
	}, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPartitionChecker(r)
	if !pc.CheckOD(attr.NewList(0), attr.NewList(1)) {
		t.Error("A → B should hold under NULLS FIRST")
	}
	// NULLS FIRST on both columns: the all-NULL row leads the order.
	nulls, err := relation.FromStrings("n", []string{"A", "B"}, [][]string{
		{"", "2"}, {"1", ""}, {"", ""}, {"2", "1"}, {"1", "1"},
	}, relation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := attr.NewList(0, 1)
	got, want := NewPartitionChecker(nulls).Partition(x).Idx, referenceSort(nulls, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Partition(%v).Idx = %v, want %v", x, got, want)
		}
	}
	if got[0] != 2 {
		t.Errorf("NULL row not first: %v", got)
	}
	empty := relation.FromInts("e", []string{"A", "B"}, nil)
	pce := NewPartitionChecker(empty)
	if !pce.CheckOD(attr.NewList(0), attr.NewList(1)) {
		t.Error("vacuous OD on empty relation")
	}
	if sp := pce.Partition(attr.NewList(0, 1)); len(sp.Idx) != 0 || sp.NumClasses() != 0 {
		t.Errorf("empty relation partition = %+v", sp)
	}
	// The empty list keeps the original row order in one class.
	two := NewPartitionChecker(relation.FromInts("t", []string{"A"}, [][]int{{3}, {1}}))
	if sp := two.Partition(attr.List{}); sp.Idx[0] != 0 || sp.Idx[1] != 1 || sp.NumClasses() != 1 {
		t.Errorf("Partition([]) = %+v", sp)
	}
}

func TestPartitionCheckerConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	r := randomRelation(rng, 300, 5, 4)
	pc := NewPartitionChecker(r)
	type cand struct{ x, y attr.List }
	cands := make([]cand, 48)
	want := make([]bool, len(cands))
	for i := range cands {
		cands[i] = cand{randomList(rng, 5, 3), randomList(rng, 5, 3)}
		want[i] = bruteOCD(r, cands[i].x, cands[i].y)
	}
	done := make(chan bool)
	for w := 0; w < 6; w++ {
		go func(w int) {
			ok := true
			for i := w; i < len(cands); i += 6 {
				if pc.CheckOCD(cands[i].x, cands[i].y) != want[i] {
					ok = false
				}
			}
			done <- ok
		}(w)
	}
	for w := 0; w < 6; w++ {
		if !<-done {
			t.Fatal("concurrent partition checks diverged")
		}
	}
}

// TestPartitionCheckODFullAgrees: validity and violation kinds match the
// pairwise reference of Definition 2.1, and every witness is a genuine
// violating pair.
func TestPartitionCheckODFullAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(263))
	for trial := 0; trial < 200; trial++ {
		r := randomRelation(rng, 2+rng.Intn(20), 3, 1+rng.Intn(4))
		pc := NewPartitionChecker(r)
		x := randomList(rng, 3, 2)
		y := randomList(rng, 3, 2)
		a := pc.CheckODFull(x, y)
		split, swap := bruteViolations(r, x, y)
		if a.HasSplit != split || a.HasSwap != swap || a.Valid != (!split && !swap) {
			t.Fatalf("trial %d: %+v, brute split=%v swap=%v for %v→%v", trial, a, split, swap, x, y)
		}
		if a.HasSplit {
			p, q := a.SplitWitness.P, a.SplitWitness.Q
			if CompareRows(r, p, q, x) != 0 || CompareRows(r, p, q, y) == 0 {
				t.Fatalf("trial %d: bogus split witness", trial)
			}
		}
		if a.HasSwap {
			p, q := a.SwapWitness.P, a.SwapWitness.Q
			if !(CompareRows(r, p, q, x) < 0 && CompareRows(r, p, q, y) > 0) {
				t.Fatalf("trial %d: bogus swap witness (%d,%d)", trial, p, q)
			}
		}
	}
}

// referenceSort is a plain comparison sort of the row positions by x,
// stable so ties keep the original row order.
func referenceSort(r *relation.Relation, x attr.List) []int32 {
	idx := make([]int32, r.NumRows())
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return CompareRows(r, int(idx[a]), int(idx[b]), x) < 0
	})
	return idx
}
