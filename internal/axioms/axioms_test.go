package axioms

import (
	"math/rand"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/order"
	"ocd/internal/relation"
)

func ids(xs ...int) attr.List {
	l := make(attr.List, len(xs))
	for i, x := range xs {
		l[i] = attr.ID(x)
	}
	return l
}

func universe(n int) []attr.ID {
	out := make([]attr.ID, n)
	for i := range out {
		out[i] = attr.ID(i)
	}
	return out
}

func TestReflexivityBuiltIn(t *testing.T) {
	e := New(universe(3), 3, nil)
	// XY → X instances
	if !e.Entails(ids(0, 1), ids(0)) {
		t.Error("AB → A should be axiomatic")
	}
	if !e.Entails(ids(0, 1, 2), ids(0, 1)) {
		t.Error("ABC → AB should be axiomatic")
	}
	if !e.Entails(ids(0), ids()) {
		t.Error("A → [] should be axiomatic")
	}
	if e.Entails(ids(0), ids(1)) {
		t.Error("A → B must not be derivable from nothing")
	}
}

func TestNormalizationCanonical(t *testing.T) {
	e := New(universe(2), 2, nil)
	// ABA normalizes to AB, so ABA → AB is reflexivity after AX3.
	if !e.Entails(ids(0, 1, 0), ids(0, 1)) {
		t.Error("ABA → AB should hold by normalization + reflexivity")
	}
	if !e.EntailsEquivalence(ids(0, 1, 0), ids(0, 1)) {
		t.Error("ABA ↔ AB should hold")
	}
}

func TestTransitivity(t *testing.T) {
	e := New(universe(3), 2, []OD{
		{X: ids(0), Y: ids(1)},
		{X: ids(1), Y: ids(2)},
	})
	if !e.Entails(ids(0), ids(2)) {
		t.Error("A → C should follow by transitivity")
	}
}

func TestPrefix(t *testing.T) {
	e := New(universe(3), 3, []OD{{X: ids(1), Y: ids(2)}})
	// AX2: B → C ⊢ AB → AC
	if !e.Entails(ids(0, 1), ids(0, 2)) {
		t.Error("AB → AC should follow from B → C by Prefix")
	}
}

func TestSuffix(t *testing.T) {
	e := New(universe(2), 2, []OD{{X: ids(0), Y: ids(1)}})
	// AX5: A → B ⊢ A ↔ AB
	if !e.EntailsEquivalence(ids(0), ids(0, 1)) {
		t.Error("A ↔ AB should follow from A → B by Suffix")
	}
}

// TestTheorem38 verifies Theorem 3.8 within the engine: X ~ Y iff XY → Y,
// for singleton X, Y. From the OCD (as the OD pair XY→YX, YX→XY) the engine
// must derive AB → B, and conversely from AB → B it must derive the
// equivalence AB ↔ BA.
func TestTheorem38(t *testing.T) {
	// direction ⇒: base = A ~ B (i.e. AB ↔ BA)
	e := New(universe(2), 2, []OD{
		{X: ids(0, 1), Y: ids(1, 0)},
		{X: ids(1, 0), Y: ids(0, 1)},
	})
	if !e.Entails(ids(0, 1), ids(1)) {
		t.Error("A ~ B should entail AB → B")
	}
	if !e.EntailsOCD(ids(0), ids(1)) {
		t.Error("EntailsOCD should report A ~ B from its defining ODs")
	}
	// direction ⇐: base = AB → B
	e2 := New(universe(2), 2, []OD{{X: ids(0, 1), Y: ids(1)}})
	if !e2.EntailsEquivalence(ids(0, 1), ids(1, 0)) {
		t.Error("AB → B should entail AB ↔ BA (Theorem 3.8)")
	}
}

// TestTheorem310 verifies the Completeness of minimal OCD - 1 instance:
// from B ~ C derive AB ~ AC.
func TestTheorem310(t *testing.T) {
	e := New(universe(3), 3, []OD{
		{X: ids(1, 2), Y: ids(2, 1)},
		{X: ids(2, 1), Y: ids(1, 2)},
	})
	// AB ~ AC ⇔ AB·AC ↔ AC·AB; normalized: ABAC → ABC, ACAB → ACB.
	if !e.EntailsOCD(ids(0, 1), ids(0, 2)) {
		t.Error("B ~ C should entail AB ~ AC (Theorem 3.10)")
	}
}

// TestSoundnessOnInstances: take all valid ODs (up to length 2) of a random
// instance as base; everything in the closure must also be valid on that
// instance, because the axioms are sound.
func TestSoundnessOnInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 20; trial++ {
		r := randomRelation(rng, 2+rng.Intn(12), 3, 1+rng.Intn(3))
		chk := order.NewPartitionChecker(r)
		lists := enumerateLists(universe(3), 2)
		var base []OD
		for _, x := range lists {
			for _, y := range lists {
				if chk.CheckOD(x, y) {
					base = append(base, OD{X: x, Y: y})
				}
			}
		}
		e := New(universe(3), 3, base)
		for _, x := range enumerateLists(universe(3), 3) {
			for _, y := range enumerateLists(universe(3), 3) {
				if e.Entails(x, y) && !chk.CheckOD(x, y) {
					t.Fatalf("trial %d: closure derived invalid OD %v → %v", trial, x, y)
				}
			}
		}
	}
}

func TestClosureGrowth(t *testing.T) {
	// Section 3.1: n order-equivalent attributes need n-1 dependencies to
	// describe, but the closure is quadratically larger.
	base := []OD{
		{X: ids(0), Y: ids(1)}, {X: ids(1), Y: ids(0)},
		{X: ids(1), Y: ids(2)}, {X: ids(2), Y: ids(1)},
	}
	e := New(universe(3), 1, base)
	// All 6 ordered singleton pairs must be derived.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j && !e.Entails(ids(i), ids(j)) {
				t.Errorf("%d → %d missing from closure", i, j)
			}
		}
	}
	if e.Size() <= len(base) {
		t.Error("closure should be strictly larger than the base")
	}
}

func TestBoundRejectsLongLists(t *testing.T) {
	e := New(universe(4), 2, nil)
	if e.Entails(ids(0, 1, 2), ids(0)) {
		t.Error("lists beyond the bound must be rejected, not guessed")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	x, y := ids(0, 12), ids(3)
	px, py := parseKey(key(x, y))
	if !px.Equal(x) || !py.Equal(y) {
		t.Errorf("parseKey round trip: %v %v", px, py)
	}
	ex, ey := parseKey(key(ids(), ids()))
	if len(ex) != 0 || len(ey) != 0 {
		t.Error("empty lists round trip failed")
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
