package datagen

import (
	"testing"

	"ocd/internal/attr"
	"ocd/internal/core"
	"ocd/internal/order"
	"ocd/internal/orderalg"
	"ocd/internal/relation"
)

func TestShapes(t *testing.T) {
	cases := []struct {
		r          *relation.Relation
		rows, cols int
	}{
		{Yes(), 5, 2},
		{No(), 5, 2},
		{Numbers(), 6, 4},
		{TaxTable(), 6, 5},
		{Letter(1000), 1000, 17},
		{Hepatitis(), 155, 20},
		{Horse(), 300, 29},
		{NCVoter1K(), 1000, 19},
		{Flight1K(), 1000, 109},
		{DBTesma1K(), 1000, 30},
		{LineItem(500), 500, 16},
		{NCVoter(200, 94), 200, 94},
	}
	for _, c := range cases {
		if c.r.NumRows() != c.rows || c.r.NumCols() != c.cols {
			t.Errorf("%s: shape %dx%d, want %dx%d", c.r.Name,
				c.r.NumRows(), c.r.NumCols(), c.rows, c.cols)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := Hepatitis(), Hepatitis()
	for c := 0; c < a.NumCols(); c++ {
		for i := 0; i < a.NumRows(); i++ {
			if a.Code(i, attr.ID(c)) != b.Code(i, attr.ID(c)) {
				t.Fatal("generator not deterministic")
			}
		}
	}
}

// TestYesNoSemantics pins the structural claims of Table 5.
func TestYesNoSemantics(t *testing.T) {
	a, b := attr.Singleton(0), attr.Singleton(1)
	yes := order.NewPartitionChecker(Yes())
	if yes.CheckOD(a, b) || yes.CheckOD(b, a) || !yes.CheckOCD(a, b) {
		t.Error("YES: want A↛B, B↛A, A~B")
	}
	no := order.NewPartitionChecker(No())
	if no.CheckOD(a, b) || no.CheckOD(b, a) || no.CheckOCD(a, b) {
		t.Error("NO: want A↛B, B↛A, A≁B")
	}
}

// TestNumbersSemantics pins the Table 7 claim: B → AC does not hold.
func TestNumbersSemantics(t *testing.T) {
	chk := order.NewPartitionChecker(Numbers())
	if chk.CheckOD(attr.NewList(1), attr.NewList(0, 2)) {
		t.Error("NUMBERS: B → AC must not hold")
	}
}

// TestTaxTableSemantics pins the §1 dependencies.
func TestTaxTableSemantics(t *testing.T) {
	r := TaxTable()
	chk := order.NewPartitionChecker(r)
	income, _ := r.ColIndex("income")
	tax, _ := r.ColIndex("tax")
	bracket, _ := r.ColIndex("bracket")
	savings, _ := r.ColIndex("savings")
	if !chk.OrderEquivalent(attr.Singleton(income), attr.Singleton(tax)) {
		t.Error("income ↔ tax must hold")
	}
	if !chk.CheckOD(attr.Singleton(income), attr.Singleton(bracket)) {
		t.Error("income → bracket must hold")
	}
	if !chk.CheckOCD(attr.Singleton(income), attr.Singleton(savings)) {
		t.Error("income ~ savings must hold")
	}
}

func TestLetterIsDependencyPoor(t *testing.T) {
	r := Letter(2000)
	res := core.Discover(r, core.Options{Workers: 4})
	if len(res.EquivClasses) != 0 || len(res.Constants) != 0 {
		t.Errorf("LETTER should have no reductions: %v %v", res.EquivClasses, res.Constants)
	}
	// Nearly independent columns: the tree dies at level 2 and the number
	// of OCDs stays tiny (the paper reports 272 checks total on 17 cols).
	if len(res.OCDs) > 5 {
		t.Errorf("LETTER OCDs = %d, want nearly none", len(res.OCDs))
	}
	if res.Stats.Levels > 3 {
		t.Errorf("LETTER levels = %d, want tree to die early", res.Stats.Levels)
	}
}

func TestNCVoterStructure(t *testing.T) {
	r := NCVoter1K()
	// state is constant
	state, _ := r.ColIndex("state")
	if !r.IsConstant(state) {
		t.Error("state column should be constant")
	}
	// county_desc is order-equivalent with county_id (same string prefix)
	chk := order.NewPartitionChecker(r)
	cid, _ := r.ColIndex("county_id")
	cdesc, _ := r.ColIndex("county_desc")
	if !chk.OrderEquivalent(attr.Singleton(cid), attr.Singleton(cdesc)) {
		t.Error("county_id ↔ county_desc should hold")
	}
	// age → age_group
	age, _ := r.ColIndex("age")
	ageGrp, _ := r.ColIndex("age_group")
	if !chk.CheckOD(attr.Singleton(age), attr.Singleton(ageGrp)) {
		t.Error("age → age_group should hold")
	}
}

func TestFlightStructure(t *testing.T) {
	r := Flight1K()
	constants, quasi := 0, 0
	for c := 0; c < r.NumCols(); c++ {
		id := attr.ID(c)
		if r.IsConstant(id) {
			constants++
		} else if r.DistinctClasses(id) <= 4 {
			quasi++
		}
	}
	if constants < 20 {
		t.Errorf("FLIGHT constants = %d, want many", constants)
	}
	if quasi < 20 {
		t.Errorf("FLIGHT quasi-constants = %d, want many", quasi)
	}
	// shadow columns are order-equivalent with their sources
	chk := order.NewPartitionChecker(r)
	eqPairs := 0
	for c := 30; c < 45; c++ {
		if chk.OrderEquivalent(attr.Singleton(attr.ID(c-30)), attr.Singleton(attr.ID(c))) {
			eqPairs++
		}
	}
	if eqPairs < 10 {
		t.Errorf("FLIGHT equivalent shadow pairs = %d, want most of 15", eqPairs)
	}
}

func TestDBTesmaStructure(t *testing.T) {
	r := DBTesma1K()
	chk := order.NewPartitionChecker(r)
	key := attr.Singleton(0)
	// monotone derivations: t1 → t11, t1 → t13 (index 12), t1 ↔ t14 (13)
	if !chk.CheckOD(key, attr.Singleton(10)) {
		t.Error("t1 → t11 should hold")
	}
	if !chk.OrderEquivalent(key, attr.Singleton(12)) {
		t.Error("t1 ↔ t13 should hold (key*3)")
	}
	if !chk.OrderEquivalent(key, attr.Singleton(13)) {
		t.Error("t1 ↔ t14 should hold (zero-padded key)")
	}
	// key determines the hash-derived columns functionally but not orderly
	if chk.CheckOD(attr.Singleton(1), key) {
		t.Error("t2 → t1 should not hold")
	}
}

func TestLineItemStructure(t *testing.T) {
	r := LineItem(2000)
	chk := order.NewPartitionChecker(r)
	// orderkey is non-decreasing in generation order but not a key; the
	// pair (orderkey, linenumber) is close to one. Verify basic sanity:
	// suppkey is functionally determined by partkey (part%100).
	part, _ := r.ColIndex("partkey")
	supp, _ := r.ColIndex("suppkey")
	full := chk.CheckODFull(attr.Singleton(part), attr.Singleton(supp))
	if full.HasSplit {
		t.Error("partkey should determine suppkey (no split)")
	}
	// Commit and receipt dates follow ship dates: shipdate ≤ both.
	ship, _ := r.ColIndex("shipdate")
	commit, _ := r.ColIndex("commitdate")
	for i := 0; i < r.NumRows(); i++ {
		if r.Code(i, ship) > r.Code(i, commit) && r.Value(i, ship) > r.Value(i, commit) {
			t.Fatal("commitdate before shipdate")
		}
	}
}

// TestOrderFindsNothingOnYesNo is the cross-algorithm pin of §5.2.1.
func TestOrderFindsNothingOnYesNo(t *testing.T) {
	for _, r := range []*relation.Relation{Yes(), No()} {
		if res := orderalg.Discover(r, orderalg.Options{}); len(res.ODs) != 0 {
			t.Errorf("%s: ORDER found %v", r.Name, res.ODs)
		}
	}
	if res := core.Discover(Yes(), core.Options{Workers: 1}); len(res.OCDs) != 1 {
		t.Errorf("YES: OCDDISCOVER found %d OCDs, want 1", len(res.OCDs))
	}
}

func TestScaling(t *testing.T) {
	small := LineItem(100)
	big := LineItem(400)
	if small.NumRows() != 100 || big.NumRows() != 400 {
		t.Error("row scaling broken")
	}
	if f := Flight(100, 50); f.NumCols() != 50 || f.NumRows() != 100 {
		t.Error("flight scaling broken")
	}
	if v := NCVoter(50, 200); v.NumCols() != 94 {
		t.Error("NCVoter should clamp to 94 columns")
	}
}
