package approx

import (
	"math"
	"math/rand"
	"testing"

	"ocd/internal/attr"
	"ocd/internal/order"
	"ocd/internal/relation"
)

func rel(rows [][]int) *relation.Relation {
	names := make([]string, len(rows[0]))
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	return relation.FromInts("t", names, rows)
}

func ids(xs ...int) attr.List {
	l := make(attr.List, len(xs))
	for i, x := range xs {
		l[i] = attr.ID(x)
	}
	return l
}

func TestExactODHasZeroError(t *testing.T) {
	r := rel([][]int{{1, 1}, {2, 2}, {3, 3}})
	c := NewChecker(r)
	if e := c.Error(ids(0), ids(1)); e != 0 {
		t.Errorf("Error = %v, want 0", e)
	}
	if c.KeepCount(ids(0), ids(1)) != 3 {
		t.Error("KeepCount should keep everything")
	}
}

func TestSingleOutlier(t *testing.T) {
	// One row breaks the otherwise perfect OD: error = 1/5.
	r := rel([][]int{{1, 1}, {2, 2}, {3, 9}, {4, 4}, {5, 5}})
	c := NewChecker(r)
	if got := c.KeepCount(ids(0), ids(1)); got != 4 {
		t.Errorf("KeepCount = %d, want 4", got)
	}
	if e := c.Error(ids(0), ids(1)); math.Abs(e-0.2) > 1e-12 {
		t.Errorf("Error = %v, want 0.2", e)
	}
	if !c.Holds(ids(0), ids(1), 0.2) || c.Holds(ids(0), ids(1), 0.1) {
		t.Error("threshold semantics wrong")
	}
}

func TestSplitCostsRows(t *testing.T) {
	// Two rows tie on A with different B: one of them must go.
	r := rel([][]int{{1, 1}, {1, 2}, {2, 3}})
	c := NewChecker(r)
	if got := c.KeepCount(ids(0), ids(1)); got != 2 {
		t.Errorf("KeepCount = %d, want 2", got)
	}
}

func TestTieGroupKeepsHeaviestClass(t *testing.T) {
	// A=1 rows: three with B=1, one with B=9 — keep the three.
	r := rel([][]int{{1, 1}, {1, 1}, {1, 1}, {1, 9}, {2, 5}})
	c := NewChecker(r)
	if got := c.KeepCount(ids(0), ids(1)); got != 4 { // three B=1 plus (2,5)
		t.Errorf("KeepCount = %d, want 4", got)
	}
}

func TestReversedColumnMaxError(t *testing.T) {
	// B strictly decreasing in A: only one row can survive... any single
	// row satisfies the OD, and no two do, except ties. KeepCount = 1.
	r := rel([][]int{{1, 3}, {2, 2}, {3, 1}})
	c := NewChecker(r)
	if got := c.KeepCount(ids(0), ids(1)); got != 1 {
		t.Errorf("KeepCount = %d, want 1", got)
	}
}

func TestEmptyRelation(t *testing.T) {
	r := relation.FromInts("e", []string{"A", "B"}, nil)
	c := NewChecker(r)
	if c.Error(ids(0), ids(1)) != 0 || c.KeepCount(ids(0), ids(1)) != 0 {
		t.Error("empty relation should have zero error")
	}
}

// bruteKeep enumerates all subsets (rows ≤ 14) and returns the largest one
// on which the OD holds exactly.
func bruteKeep(r *relation.Relation, x, y attr.List) int {
	m := r.NumRows()
	best := 0
	for mask := 0; mask < 1<<m; mask++ {
		var rows []int
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				rows = append(rows, i)
			}
		}
		if len(rows) <= best {
			continue
		}
		ok := true
		for _, p := range rows {
			for _, q := range rows {
				if order.CompareRows(r, p, q, x) <= 0 && order.CompareRows(r, p, q, y) > 0 {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			best = len(rows)
		}
	}
	return best
}

func TestQuickAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(9) // ≤ 10 rows: 1024 subsets
		rows := make([][]int, m)
		for i := range rows {
			rows[i] = []int{rng.Intn(4), rng.Intn(4)}
		}
		r := rel(rows)
		c := NewChecker(r)
		got := c.KeepCount(ids(0), ids(1))
		want := bruteKeep(r, ids(0), ids(1))
		if got != want {
			t.Fatalf("trial %d: KeepCount = %d, brute = %d on %v", trial, got, want, rows)
		}
	}
}

func TestQuickMultiAttributeAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(8)
		rows := make([][]int, m)
		for i := range rows {
			rows[i] = []int{rng.Intn(3), rng.Intn(3), rng.Intn(3)}
		}
		r := rel(rows)
		c := NewChecker(r)
		x, y := ids(0, 1), ids(2)
		if got, want := c.KeepCount(x, y), bruteKeep(r, x, y); got != want {
			t.Fatalf("trial %d: KeepCount = %d, brute = %d on %v", trial, got, want, rows)
		}
	}
}

// Property: error is zero iff the exact OD holds.
func TestQuickZeroErrorIffExact(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	for trial := 0; trial < 100; trial++ {
		m := 2 + rng.Intn(20)
		rows := make([][]int, m)
		for i := range rows {
			rows[i] = []int{rng.Intn(3), rng.Intn(3)}
		}
		r := rel(rows)
		c := NewChecker(r)
		exact := order.NewPartitionChecker(r).CheckOD(ids(0), ids(1))
		if (c.Error(ids(0), ids(1)) == 0) != exact {
			t.Fatalf("trial %d: zero-error disagrees with exact check", trial)
		}
	}
}

func TestOCDError(t *testing.T) {
	// YES table: A ~ B exactly → OCD error 0.
	yes := rel([][]int{{1, 1}, {1, 2}, {2, 3}, {3, 3}, {4, 4}})
	if e := NewChecker(yes).OCDError(ids(0), ids(1)); e != 0 {
		t.Errorf("YES OCDError = %v", e)
	}
	// NO table: a swap exists → positive error.
	no := rel([][]int{{1, 2}, {1, 3}, {2, 1}, {3, 1}, {4, 4}})
	if e := NewChecker(no).OCDError(ids(0), ids(1)); e <= 0 {
		t.Errorf("NO OCDError = %v, want > 0", e)
	}
}

func TestDiscoverSingletons(t *testing.T) {
	// A → B holds with one outlier (error 0.2); B → A badly broken.
	r := rel([][]int{{1, 1, 7}, {2, 2, 7}, {3, 9, 7}, {4, 4, 7}, {5, 5, 7}})
	aods := DiscoverSingletons(r, 0.25)
	foundAB := false
	for _, d := range aods {
		if d.X.Equal(ids(0)) && d.Y.Equal(ids(1)) {
			foundAB = true
			if math.Abs(d.Error-0.2) > 1e-12 {
				t.Errorf("A→B error = %v", d.Error)
			}
		}
		for _, a := range append(d.X.Clone(), d.Y...) {
			if a == 2 {
				t.Error("constant column should be excluded")
			}
		}
	}
	if !foundAB {
		t.Errorf("A→B missing from %v", aods)
	}
	// errors sorted ascending
	for i := 1; i < len(aods); i++ {
		if aods[i-1].Error > aods[i].Error {
			t.Error("output not sorted by error")
		}
	}
}

func TestFenwick(t *testing.T) {
	f := newFenwickMax(10)
	f.update(3, 5)
	f.update(7, 2)
	if f.prefixMax(2) != 0 {
		t.Error("prefixMax(2) should be 0")
	}
	if f.prefixMax(3) != 5 || f.prefixMax(9) != 5 {
		t.Error("prefixMax after update wrong")
	}
	f.update(1, 9)
	if f.prefixMax(3) != 9 {
		t.Error("prefixMax should see the larger value")
	}
}
