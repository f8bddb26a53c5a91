// Package approx implements approximate order dependencies: ODs that hold
// on all but a bounded fraction of tuples. The paper's introduction
// motivates exactly this use ("data profiling ... highlights constraints
// that may exist in the data but are not fully satisfied"), and the
// related-work section points to the approximate/partial variants of
// functional dependencies; this package is the OD analogue, measured with
// the g₃-style error
//
//	e(X → Y) = (|r| − s) / |r|
//
// where s is the size of the largest sub-instance on which X → Y holds
// exactly. An approximate OD holds at threshold ε iff e ≤ ε.
//
// Computing s exactly is tractable: sort the rows by X; a sub-instance
// satisfies the OD iff, scanning in that order, the Y-tuples are
// non-decreasing and rows that tie on X agree on Y. Grouping rows by their
// (X-rank, Y-rank) pair reduces the problem to a weighted longest
// non-decreasing subsequence over the group points — at most one Y-class
// may be chosen per X-class — solved in O(m log m) with a Fenwick prefix-max
// tree.
package approx

import (
	"sort"

	"ocd/internal/attr"
	"ocd/internal/order"
	"ocd/internal/relation"
)

// Checker computes approximate-OD errors against a fixed relation.
type Checker struct {
	r   *relation.Relation
	chk *order.PartitionChecker
}

// NewChecker returns a checker for r.
func NewChecker(r *relation.Relation) *Checker {
	return &Checker{r: r, chk: order.NewPartitionChecker(r)}
}

// KeepCount returns s: the maximum number of rows that can be kept so that
// the OD X → Y holds exactly on the kept rows.
func (c *Checker) KeepCount(x, y attr.List) int {
	m := c.r.NumRows()
	if m == 0 {
		return 0
	}
	// Rank every row's X-tuple and Y-tuple by their sorted partitions.
	kx := tupleRanks(c.chk, c.r, x)
	ky := tupleRanks(c.chk, c.r, y)

	// Group rows into (kx, ky) points with multiplicities.
	type point struct {
		x, y int32
		w    int
	}
	counts := make(map[[2]int32]int)
	maxY := int32(0)
	for i := 0; i < m; i++ {
		counts[[2]int32{kx[i], ky[i]}]++
		if ky[i] > maxY {
			maxY = ky[i]
		}
	}
	points := make([]point, 0, len(counts))
	for k, w := range counts {
		points = append(points, point{x: k[0], y: k[1], w: w})
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].x != points[b].x {
			return points[a].x < points[b].x
		}
		return points[a].y < points[b].y
	})

	// Weighted longest non-decreasing subsequence over the points, with
	// at most one point per x-class: process one x-class at a time so all
	// its candidates read the Fenwick state of strictly smaller x.
	fw := newFenwickMax(int(maxY) + 2)
	type upd struct {
		y int32
		v int
	}
	var pending []upd
	for i := 0; i < len(points); {
		j := i
		for j < len(points) && points[j].x == points[i].x {
			j++
		}
		pending = pending[:0]
		for k := i; k < j; k++ {
			p := points[k]
			best := fw.prefixMax(int(p.y)) + p.w
			pending = append(pending, upd{y: p.y, v: best})
		}
		for _, u := range pending {
			fw.update(int(u.y), u.v)
		}
		i = j
	}
	return fw.prefixMax(int(maxY) + 1)
}

// Error returns e(X → Y) ∈ [0, 1]: 0 iff the OD holds exactly.
func (c *Checker) Error(x, y attr.List) float64 {
	m := c.r.NumRows()
	if m == 0 {
		return 0
	}
	return float64(m-c.KeepCount(x, y)) / float64(m)
}

// Holds reports whether the approximate OD X → Y holds at threshold eps.
func (c *Checker) Holds(x, y attr.List, eps float64) bool {
	return c.Error(x, y) <= eps
}

// OCDError returns the error of the OCD X ~ Y, via Theorem 4.1's single
// check: e(X ~ Y) = e(XY → YX).
func (c *Checker) OCDError(x, y attr.List) float64 {
	return c.Error(x.Concat(y), y.Concat(x))
}

// tupleRanks assigns each row the dense rank of its tuple projection on
// the list (rank 0 = ⪯-smallest): the index of its class in the list's
// sorted partition. Ties share a rank.
func tupleRanks(chk *order.PartitionChecker, r *relation.Relation, l attr.List) []int32 {
	sp := chk.Partition(l)
	ranks := make([]int32, r.NumRows())
	start := int32(0)
	for k, end := range sp.Ends {
		for _, row := range sp.Idx[start:end] {
			ranks[row] = int32(k)
		}
		start = end
	}
	return ranks
}

// fenwickMax is a Fenwick tree over prefix maxima.
type fenwickMax struct {
	tree []int
}

func newFenwickMax(n int) *fenwickMax {
	return &fenwickMax{tree: make([]int, n+1)}
}

// update raises position i (0-based) to at least v.
func (f *fenwickMax) update(i, v int) {
	for i++; i < len(f.tree); i += i & (-i) {
		if f.tree[i] < v {
			f.tree[i] = v
		}
	}
}

// prefixMax returns the maximum over positions 0..i (0-based, inclusive).
func (f *fenwickMax) prefixMax(i int) int {
	best := 0
	for i++; i > 0; i -= i & (-i) {
		if i < len(f.tree) && f.tree[i] > best {
			best = f.tree[i]
		}
	}
	return best
}

// AOD is an approximate order dependency with its measured error.
type AOD struct {
	X, Y  attr.List
	Error float64
}

// DiscoverSingletons profiles all ordered singleton pairs and returns those
// whose approximate-OD error is at most eps, sorted by increasing error —
// the "almost-ordered" column pairs a profiler reports to a user. Constant
// columns are skipped (they trivially satisfy every OD).
func DiscoverSingletons(r *relation.Relation, eps float64) []AOD {
	c := NewChecker(r)
	var out []AOD
	for i := 0; i < r.NumCols(); i++ {
		if r.IsConstant(attr.ID(i)) {
			continue
		}
		for j := 0; j < r.NumCols(); j++ {
			if i == j || r.IsConstant(attr.ID(j)) {
				continue
			}
			x, y := attr.Singleton(attr.ID(i)), attr.Singleton(attr.ID(j))
			if e := c.Error(x, y); e <= eps {
				out = append(out, AOD{X: x, Y: y, Error: e})
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Error < out[b].Error })
	return out
}
