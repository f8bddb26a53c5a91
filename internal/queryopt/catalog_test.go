package queryopt

import (
	"math/rand"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/core"
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

func catalogOf(res *core.Result) Catalog {
	c := Catalog{EquivClasses: res.EquivClasses, Constants: res.Constants}
	for _, d := range res.ODs {
		c.ODs = append(c.ODs, struct{ X, Y attr.List }{d.X, d.Y})
	}
	// OCDs contribute their defining OD pair: XY → YX and YX → XY.
	for _, d := range res.OCDs {
		c.ODs = append(c.ODs,
			struct{ X, Y attr.List }{d.X.Concat(d.Y), d.Y.Concat(d.X)},
			struct{ X, Y attr.List }{d.Y.Concat(d.X), d.X.Concat(d.Y)})
	}
	return c
}

func TestCatalogPaperExample(t *testing.T) {
	// Table 1 without the name column: income(0), savings(1), bracket(2),
	// tax(3). Discover once, feed the catalog, rewrite without data.
	r := relation.FromInts("tax", []string{"income", "savings", "bracket", "tax"}, [][]int{
		{35000, 3000, 1, 5250},
		{40000, 4000, 1, 6000},
		{40000, 3800, 1, 6000},
		{55000, 6500, 2, 8500},
		{60000, 6500, 2, 9500},
		{80000, 10000, 3, 14000},
	})
	res := core.Discover(r, core.Options{Workers: 1})
	opt := NewCatalog(catalogOf(res))

	// ORDER BY income, bracket, tax ⇒ ORDER BY income:
	// tax ≡ income (equivalence), income → bracket (declared OD).
	got := opt.Simplify(ids(0, 2, 3))
	if !got.Equal(ids(0)) {
		t.Errorf("Simplify(income,bracket,tax) = %v, want [income]", got)
	}
	// ORDER BY tax, bracket ⇒ ORDER BY tax (via the equivalence).
	got = opt.Simplify(ids(3, 2))
	if !got.Equal(ids(3)) {
		t.Errorf("Simplify(tax,bracket) = %v, want [tax]", got)
	}
	// ORDER BY bracket, income has no sound rewrite.
	got = opt.Simplify(ids(2, 0))
	if !got.Equal(ids(2, 0)) {
		t.Errorf("Simplify(bracket,income) = %v, want unchanged", got)
	}
}

func TestCatalogConstantsDropped(t *testing.T) {
	opt := NewCatalog(Catalog{Constants: []attr.ID{1}})
	got := opt.Simplify(ids(1, 0, 1))
	if !got.Equal(ids(0)) {
		t.Errorf("Simplify(K,A,K) = %v, want [A]", got)
	}
	if got := opt.Simplify(ids(1)); len(got) != 0 {
		t.Errorf("ORDER BY constant should vanish: %v", got)
	}
}

func TestCatalogEquivalenceSpelling(t *testing.T) {
	// Class {0, 3}: user orders by 3; the rewrite must answer in terms of
	// column 3, not the internal representative 0.
	opt := NewCatalog(Catalog{
		EquivClasses: [][]attr.ID{{0, 3}},
		ODs:          []struct{ X, Y attr.List }{{ids(0), ids(2)}},
	})
	got := opt.Simplify(ids(3, 2))
	if !got.Equal(ids(3)) {
		t.Errorf("Simplify(3,2) = %v, want [3]", got)
	}
}

func TestCatalogNoDeps(t *testing.T) {
	opt := NewCatalog(Catalog{})
	got := opt.Simplify(ids(2, 1, 0))
	if !got.Equal(ids(2, 1, 0)) {
		t.Errorf("no deps: Simplify = %v, want unchanged", got)
	}
}

// TestCatalogSoundOnInstances: any rewrite the catalog optimizer makes from
// a discovery result must be valid on the instance the result came from.
func TestCatalogSoundOnInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(197))
	for trial := 0; trial < 30; trial++ {
		nr, nc := 3+rng.Intn(15), 3
		rows := make([][]int, nr)
		for i := range rows {
			rows[i] = make([]int, nc)
			for j := range rows[i] {
				rows[i][j] = rng.Intn(3)
			}
		}
		r := relation.FromInts("rand", nil, rows)
		res := core.Discover(r, core.Options{Workers: 1})
		opt := NewCatalog(catalogOf(res))
		chk := order.NewPartitionChecker(r)
		var cols attr.List
		for _, p := range rng.Perm(nc)[:1+rng.Intn(nc)] {
			cols = append(cols, attr.ID(p))
		}
		simplified := opt.Simplify(cols)
		if !chk.CheckOD(simplified, cols) {
			t.Fatalf("trial %d: catalog rewrite %v does not order %v on its own instance",
				trial, simplified, cols)
		}
		if len(simplified) > len(cols) {
			t.Fatalf("trial %d: rewrite longer than input", trial)
		}
	}
}

// TestCatalogFallbackPath exercises the prefix-matching fallback used when
// the attribute universe is too large for a bounded axiom closure.
func TestCatalogFallbackPath(t *testing.T) {
	// 10 attributes in play pushes past the closure bound.
	var deps []struct{ X, Y attr.List }
	deps = append(deps, struct{ X, Y attr.List }{ids(0), ids(1, 2, 3, 4, 5, 6, 7, 8, 9)})
	opt := NewCatalog(Catalog{ODs: deps})
	// The declared dep directly covers the suffix: prefix rule applies.
	got := opt.Simplify(ids(0, 1, 2, 3, 4, 5))
	if !got.Equal(ids(0)) {
		t.Errorf("fallback Simplify = %v, want [0]", got)
	}
	// Nothing derivable for an unrelated list.
	got = opt.Simplify(ids(5, 4, 3, 2, 1, 0))
	if len(got) != 6 {
		t.Errorf("fallback should keep underivable list: %v", got)
	}
}

// TestCatalogLongListFallback: ORDER BY lists longer than the closure bound
// also use the fallback.
func TestCatalogLongListFallback(t *testing.T) {
	opt := NewCatalog(Catalog{ODs: []struct{ X, Y attr.List }{
		{ids(0), ids(1, 2, 3, 4)},
	}})
	got := opt.Simplify(ids(0, 1, 2, 3, 4))
	if !got.Equal(ids(0)) {
		t.Errorf("long-list Simplify = %v, want [0]", got)
	}
}
