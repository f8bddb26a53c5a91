package queryopt

import (
	"math/rand"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/order"
	"ocd/internal/relation"
)

func taxTable() *relation.Relation {
	r, err := relation.FromStrings("TaxInfo",
		[]string{"name", "income", "savings", "bracket", "tax"},
		[][]string{
			{"T. Green", "35000", "3000", "1", "5250"},
			{"J. Smith", "40000", "4000", "1", "6000"},
			{"J. Doe", "40000", "3800", "1", "6000"},
			{"S. Black", "55000", "6500", "2", "8500"},
			{"W. White", "60000", "6500", "2", "9500"},
			{"M. Darrel", "80000", "10000", "3", "14000"},
		}, relation.Options{})
	if err != nil {
		panic(err)
	}
	return r
}

// TestPaperExample reproduces the §1 rewrite:
// ORDER BY income, bracket, tax ⇒ ORDER BY income.
func TestPaperExample(t *testing.T) {
	o := New(taxTable())
	got, err := o.SimplifyQuery("income, bracket, tax")
	if err != nil {
		t.Fatal(err)
	}
	if got != "income" {
		t.Errorf("SimplifyQuery = %q, want \"income\"", got)
	}
}

func TestNoSimplificationPossible(t *testing.T) {
	o := New(taxTable())
	// savings does not order income: prefix [savings] is not enough, the
	// full list is required.
	got, err := o.SimplifyQuery("savings, name")
	if err != nil {
		t.Fatal(err)
	}
	if got != "savings, name" {
		t.Errorf("SimplifyQuery = %q, want unchanged", got)
	}
}

func TestPartialSimplification(t *testing.T) {
	o := New(taxTable())
	// income orders bracket, so the middle column is droppable only if the
	// whole suffix is implied; income does not order savings, so
	// [income, savings] must survive while the trailing bracket is
	// dropped: income, savings → bracket? savings → bracket holds, so
	// after income ties, savings orders bracket... verify via Simplify.
	r := o.r
	income, _ := r.ColIndex("income")
	savings, _ := r.ColIndex("savings")
	bracket, _ := r.ColIndex("bracket")
	simplified, dropped := o.Simplify(attr.NewList(income, savings, bracket))
	if len(simplified)+dropped != 3 {
		t.Errorf("Simplify bookkeeping wrong: %v + %d", simplified, dropped)
	}
	chk := order.NewPartitionChecker(r)
	if !chk.CheckOD(simplified, attr.NewList(income, savings, bracket)) {
		t.Error("simplified prefix does not imply the original ordering")
	}
}

func TestDuplicateColumnsNormalized(t *testing.T) {
	o := New(taxTable())
	income, _ := o.r.ColIndex("income")
	simplified, dropped := o.Simplify(attr.NewList(income, income))
	if !simplified.Equal(attr.NewList(income)) || dropped != 1 {
		t.Errorf("Simplify(income,income) = %v dropped %d", simplified, dropped)
	}
}

func TestEmptyOrderBy(t *testing.T) {
	o := New(taxTable())
	simplified, dropped := o.Simplify(attr.List{})
	if len(simplified) != 0 || dropped != 0 {
		t.Error("empty ORDER BY should stay empty")
	}
}

func TestConstantColumnDropped(t *testing.T) {
	r := relation.FromInts("t", []string{"A", "K"}, [][]int{{1, 7}, {2, 7}})
	o := New(r)
	// ORDER BY K, A: K constant, so the empty prefix does not order A...
	// but ORDER BY K alone collapses to nothing.
	simplified, _ := o.Simplify(attr.NewList(1))
	if len(simplified) != 0 {
		t.Errorf("ORDER BY constant should simplify to empty, got %v", simplified)
	}
}

func TestUnknownColumn(t *testing.T) {
	o := New(taxTable())
	if _, err := o.SimplifyQuery("nope"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestRedundant(t *testing.T) {
	o := New(taxTable())
	income, _ := o.r.ColIndex("income")
	tax, _ := o.r.ColIndex("tax")
	name, _ := o.r.ColIndex("name")
	if !o.Redundant(attr.NewList(income), tax) {
		t.Error("tax after income is redundant")
	}
	if o.Redundant(attr.NewList(income), name) {
		t.Error("name after income is not redundant (income has ties)")
	}
}

// Property: Simplify output always implies the input ordering, and is never
// longer than the (deduplicated) input.
func TestQuickSimplifySound(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 60; trial++ {
		nr, nc := 2+rng.Intn(20), 2+rng.Intn(4)
		rows := make([][]int, nr)
		for i := range rows {
			rows[i] = make([]int, nc)
			for j := range rows[i] {
				rows[i][j] = rng.Intn(3)
			}
		}
		r := relation.FromInts("rand", nil, rows)
		o := New(r)
		var cols attr.List
		for _, p := range rng.Perm(nc)[:1+rng.Intn(nc)] {
			cols = append(cols, attr.ID(p))
		}
		simplified, dropped := o.Simplify(cols)
		if len(simplified) > len(cols.Dedup()) {
			t.Fatalf("trial %d: simplified longer than input", trial)
		}
		if dropped != len(cols)-len(simplified) {
			t.Fatalf("trial %d: dropped count wrong", trial)
		}
		chk := order.NewPartitionChecker(r)
		if !chk.CheckOD(simplified, cols) {
			t.Fatalf("trial %d: %v does not order %v", trial, simplified, cols)
		}
	}
}
