package order

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"ocd/internal/attr"
	"ocd/internal/relation"
)

// sideCase is one random instance for the side properties: a relation and
// two lists, X derived by extending its parent list X[:len-1], Y derived
// from the column cache. Relations mix NULLs, ties, a constant column, a
// key column (all classes single rows, so extension is the identity) and
// row slices, whose codes are not dense.
type sideCase struct {
	r    *relation.Relation
	x, y attr.List
	desc string
}

// Generate implements quick.Generator.
func (sideCase) Generate(rng *rand.Rand, _ int) reflect.Value {
	cols := 2 + rng.Intn(4)
	rows := 1 + rng.Intn(60)
	full := rows
	slice := rng.Intn(3) // 0: whole relation, 1: HeadRows, 2: SelectRows
	if slice > 0 {
		full = rows + rng.Intn(40)
	}
	domain := 1 + rng.Intn(5)
	data := make([][]string, full)
	for i := range data {
		data[i] = make([]string, cols)
		for j := range data[i] {
			switch {
			case j == 0:
				data[i][j] = "k" // constant column
			case j == 1 && cols > 2:
				data[i][j] = strconv.Itoa(rng.Intn(1000000)) // almost surely a key
			case rng.Intn(6) == 0:
				data[i][j] = "" // NULL
			default:
				data[i][j] = strconv.Itoa(rng.Intn(domain))
			}
		}
	}
	names := make([]string, cols)
	for j := range names {
		names[j] = string(rune('A' + j))
	}
	r, err := relation.FromStrings("side", names, data, relation.Options{})
	if err != nil {
		panic(err) // lint:allow panic — generator input is well-formed by construction
	}
	desc := "whole"
	switch slice {
	case 1:
		r, desc = r.HeadRows(rows), "HeadRows"
	case 2:
		r, desc = r.SelectRows(rng.Perm(full)[:rows]), "SelectRows"
	}
	c := sideCase{r: r, x: randomList(rng, cols, 3), y: randomList(rng, cols, 3), desc: desc}
	if len(c.x) == 1 && rng.Intn(2) == 0 {
		c.x = append(c.x, attr.ID(rng.Intn(cols))) // a repeated attribute is a no-op extension
	}
	return reflect.ValueOf(c)
}

// extendedSide derives the side of x as the engine does for a child: the
// side of its parent list, extended by x's last attribute, then kept.
func extendedSide(t *testing.T, c *PartitionChecker, x attr.List) *Side {
	t.Helper()
	parent, ps := c.DeriveSide(x[:len(x)-1])
	parent = c.Keep(parent, ps)
	sd, s := c.ExtendSide(parent, x[len(x)-1])
	return c.Keep(sd, s)
}

// sign maps a comparison to -1, 0 or 1.
func sign(v int32) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

// TestQuickSidesAgreeWithBruteForce checks the side kernel against the
// pairwise definitions (Definition 2.1 over all row pairs), which share no
// sorting, partition or rank code with it: ranks order rows exactly as ⪯
// does, and every scan — OCD, OD in both directions, and the classifying
// scan with its witnesses — answers as the brute-force reference does.
func TestQuickSidesAgreeWithBruteForce(t *testing.T) {
	prop := func(k sideCase) bool {
		r, x, y := k.r, k.x, k.y
		c := NewPartitionChecker(r)
		xs := extendedSide(t, c, x)
		ys, s := c.DeriveSide(y)
		ys = c.Keep(ys, s)
		fail := func(format string, args ...any) bool {
			t.Logf("%s relation %v, X=%v, Y=%v", k.desc, dump(r), x, y)
			t.Errorf(format, args...)
			return false
		}
		for _, side := range []struct {
			l  attr.List
			sd *Side
		}{{x, xs}, {y, ys}} {
			for p := 0; p < r.NumRows(); p++ {
				for q := 0; q < r.NumRows(); q++ {
					if got, want := sign(side.sd.Rank[p]-side.sd.Rank[q]), CompareRows(r, p, q, side.l); got != want {
						return fail("ranks of %v order rows %d, %d as %d, ⪯ says %d", side.l, p, q, got, want)
					}
				}
			}
		}
		ocd := bruteOCD(r, x, y)
		if c.CheckOCDSides(xs, ys) != ocd || c.CheckOCDSides(ys, xs) != ocd {
			return fail("OCD scans disagree with brute force %v", ocd)
		}
		if got, want := c.CheckODSides(xs, ys), bruteOD(r, x, y); got != want {
			return fail("X → Y scan = %v, brute force %v", got, want)
		}
		if got, want := c.CheckODSides(ys, xs), bruteOD(r, y, x); got != want {
			return fail("Y → X scan = %v, brute force %v", got, want)
		}
		res := c.check(xs, ys, classify)
		split, swap := bruteViolations(r, x, y)
		if res.HasSplit != split || res.HasSwap != swap || res.Valid != (!split && !swap) {
			return fail("classifying scan %+v, brute split=%v swap=%v", res, split, swap)
		}
		if sw := res.SplitWitness; split && (CompareRows(r, sw.P, sw.Q, x) != 0 || CompareRows(r, sw.P, sw.Q, y) == 0) {
			return fail("bogus split witness %+v", sw)
		}
		if sw := res.SwapWitness; swap && (CompareRows(r, sw.P, sw.Q, x) >= 0 || CompareRows(r, sw.P, sw.Q, y) <= 0) {
			return fail("bogus swap witness %+v", sw)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 600, Rand: rand.New(rand.NewSource(307))}); err != nil {
		t.Fatal(err)
	}
}

// TestExtendSideOfSingletonsIsIdentity: once every class of the parent is
// a single row, extending it derives nothing and returns the parent side.
func TestExtendSideOfSingletonsIsIdentity(t *testing.T) {
	r := relation.FromInts("t", []string{"K", "A"}, [][]int{{3, 1}, {1, 1}, {2, 0}})
	c := NewPartitionChecker(r)
	key, s := c.DeriveSide(attr.NewList(0))
	if s != nil {
		t.Fatal("a single column's side must come from the cache")
	}
	if sd, s := c.ExtendSide(key, 1); sd != key || s != nil {
		t.Fatalf("ExtendSide of an all-singleton side = %p, %v; want the parent itself", sd, s)
	}
	if sd, s := c.DeriveSide(attr.NewList(0, 1)); sd != key || s != nil {
		t.Fatalf("DeriveSide([K,A]) = %p, %v; want [K]'s cached side", sd, s)
	}
}
