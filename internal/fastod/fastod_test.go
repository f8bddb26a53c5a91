package fastod

import (
	"math/rand"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/order"
	"ocd/internal/relation"
)

func numbersTable() *relation.Relation {
	return relation.FromInts("NUMBERS", []string{"A", "B", "C", "D"}, [][]int{
		{1, 3, 1, 1},
		{2, 3, 2, 2},
		{3, 2, 2, 2},
		{3, 1, 2, 3},
		{4, 4, 2, 4},
		{4, 5, 3, 2},
	})
}

// bruteSwapFree checks the OC definition directly: for every row pair in the
// same context class, no swap between a and b.
func bruteSwapFree(r *relation.Relation, ctx []attr.ID, a, b attr.ID) bool {
	key := func(row int) string {
		k := ""
		for _, c := range ctx {
			k += string(rune(r.Code(row, c))) + "\x00"
		}
		return k
	}
	for p := 0; p < r.NumRows(); p++ {
		for q := 0; q < r.NumRows(); q++ {
			if key(p) != key(q) {
				continue
			}
			if r.Code(p, a) < r.Code(q, a) && r.Code(p, b) > r.Code(q, b) {
				return false
			}
		}
	}
	return true
}

func TestNumbersNoSpuriousDependencies(t *testing.T) {
	r := numbersTable()
	res := Discover(r, Options{})
	// A correct FASTOD must not imply the OD [B] → [A,C]: that OD requires
	// both the FD B → A (false: B=3 rows have A=1,2... actually check via
	// the emitted canonical deps) and ∅ : B ~ A swap-freedom.
	chk := order.NewPartitionChecker(r)
	if chk.CheckOD(attr.NewList(1), attr.NewList(0, 2)) {
		t.Fatal("OD B → AC holds on NUMBERS — table transcription wrong")
	}
	// Every emitted OC must be valid and minimal.
	for _, oc := range res.OCs {
		ctx := oc.Context.Slice()
		if !bruteSwapFree(r, ctx, oc.A, oc.B) {
			t.Errorf("emitted OC %v:%v~%v invalid", ctx, oc.A, oc.B)
		}
	}
	// B ~ A must NOT be emitted with empty context (the buggy behaviour):
	for _, oc := range res.OCs {
		if oc.Context.Len() == 0 && oc.A == 0 && oc.B == 1 {
			t.Error("∅ : A ~ B emitted, but A,B contain a swap on NUMBERS")
		}
	}
}

func TestOCValidityAndMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 60; trial++ {
		r := randomRelation(rng, 2+rng.Intn(15), 2+rng.Intn(4), 1+rng.Intn(3))
		res := Discover(r, Options{})
		for _, oc := range res.OCs {
			ctx := oc.Context.Slice()
			if !bruteSwapFree(r, ctx, oc.A, oc.B) {
				t.Fatalf("trial %d: OC %v:%v~%v invalid", trial, ctx, oc.A, oc.B)
			}
			// minimality: dropping any context attribute must break it
			for _, c := range ctx {
				sub := attr.NewSet(ctx...)
				sub.Remove(c)
				if bruteSwapFree(r, sub.Slice(), oc.A, oc.B) {
					t.Fatalf("trial %d: OC %v:%v~%v not minimal (drop %v)", trial, ctx, oc.A, oc.B, c)
				}
			}
		}
	}
}

// TestOCCompleteness: every pair valid in some context must have an emitted
// OC with a subset context.
func TestOCCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 40; trial++ {
		nc := 3 + rng.Intn(2) // 3..4 columns
		r := randomRelation(rng, 2+rng.Intn(12), nc, 1+rng.Intn(3))
		res := Discover(r, Options{})
		// index emitted OCs by pair
		emitted := map[pair][]attr.Set{}
		for _, oc := range res.OCs {
			emitted[pair{oc.A, oc.B}] = append(emitted[pair{oc.A, oc.B}], oc.Context)
		}
		for i := 0; i < nc; i++ {
			for j := i + 1; j < nc; j++ {
				a, b := attr.ID(i), attr.ID(j)
				// enumerate all contexts ⊆ attrs \ {a,b}
				var rest []attr.ID
				for c := 0; c < nc; c++ {
					if c != i && c != j {
						rest = append(rest, attr.ID(c))
					}
				}
				for m := 0; m < 1<<len(rest); m++ {
					var ctx []attr.ID
					for b2 := 0; b2 < len(rest); b2++ {
						if m&(1<<b2) != 0 {
							ctx = append(ctx, rest[b2])
						}
					}
					if !bruteSwapFree(r, ctx, a, b) {
						continue
					}
					ctxSet := attr.NewSet(ctx...)
					covered := false
					for _, e := range emitted[pair{a, b}] {
						if e.SubsetOf(ctxSet) {
							covered = true
							break
						}
					}
					if !covered {
						t.Fatalf("trial %d: valid OC %v:%v~%v has no emitted subset context (emitted %v)",
							trial, ctx, a, b, emitted[pair{a, b}])
					}
				}
			}
		}
	}
}

// TestAgreesWithListOCD: with an empty context, the canonical OC ∅ : A ~ B
// coincides with the list-based OCD [A] ~ [B].
func TestAgreesWithListOCD(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 60; trial++ {
		r := randomRelation(rng, 2+rng.Intn(15), 3, 1+rng.Intn(3))
		res := Discover(r, Options{})
		chk := order.NewPartitionChecker(r)
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				want := chk.CheckOCD(attr.Singleton(attr.ID(i)), attr.Singleton(attr.ID(j)))
				got := false
				for _, oc := range res.OCs {
					if oc.Context.Len() == 0 && oc.A == attr.ID(i) && oc.B == attr.ID(j) {
						got = true
					}
				}
				if got != want {
					t.Fatalf("trial %d: ∅:%d~%d emitted=%v but list OCD=%v", trial, i, j, got, want)
				}
			}
		}
	}
}

func TestConstantColumn(t *testing.T) {
	r := relation.FromInts("c", []string{"A", "K"}, [][]int{{2, 7}, {1, 7}, {3, 7}})
	res := Discover(r, Options{})
	// K constant: ∅ : A ~ K valid (no strict increase on K possible).
	found := false
	for _, oc := range res.OCs {
		if oc.Context.Len() == 0 && oc.A == 0 && oc.B == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("∅ : A ~ K missing: %v", res.OCs)
	}
	// FD sweep must report ∅ → K.
	foundFD := false
	for _, f := range res.FDs {
		if f.Lhs.Len() == 0 && f.Rhs == 1 {
			foundFD = true
		}
	}
	if !foundFD {
		t.Error("∅ → K missing from FD sweep")
	}
}

func TestMaxLevelTruncates(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	r := randomRelation(rng, 40, 6, 2)
	res := Discover(r, Options{MaxLevel: 2})
	full := Discover(r, Options{})
	if len(full.OCs) > len(res.OCs) && !res.Truncated {
		t.Error("truncated run not flagged")
	}
	for _, oc := range res.OCs {
		if oc.Context.Len() != 0 {
			t.Error("MaxLevel 2 must only emit empty contexts")
		}
	}
}

func TestStats(t *testing.T) {
	res := Discover(numbersTable(), Options{})
	if res.Checks == 0 || res.Elapsed <= 0 {
		t.Errorf("stats not populated: %+v", res)
	}
}

func randomRelation(rng *rand.Rand, rows, cols, domain int) *relation.Relation {
	data := make([][]int, rows)
	for i := range data {
		row := make([]int, cols)
		for j := range row {
			row[j] = rng.Intn(domain)
		}
		data[i] = row
	}
	names := make([]string, cols)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	return relation.FromInts("rand", names, data)
}
