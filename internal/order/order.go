// Package order implements the lexicographic order operator ⪯ over attribute
// lists (Definition 2.1) and the validity checks for order dependencies and
// order compatibility dependencies (Section 4.3 of the paper).
//
// Every check runs on *sides* (sortedpartition.go). The side of a list X is
// its sorted partition — the rows in ⪯ order with the boundaries of their
// equivalence classes, the technique Section 5.3.1 borrows from ORDER —
// plus a row→class-rank array, so comparing two rows on X is one int32
// comparison. A single column's side costs nothing beyond the cached column
// partition: its ranks are the column's rank codes. A longer list's side is
// derived one attribute at a time by counting-sorting each class, and the
// discovery engine derives a candidate's side with one such step from the
// side its parent carries.
//
// One scan answers every check: it walks the classes of one side in ⪯
// order reading the other side's ranks. A class whose minimum rank is below
// the running maximum of the earlier classes is a *swap* (X strictly
// increasing, Y strictly decreasing — an order-compatibility violation); a
// class whose minimum and maximum ranks differ is a *split* (equal X,
// different Y — a functional-dependency violation). X ~ Y holds iff there
// is no swap, whichever side the scan goes over (Theorem 4.1), and X → Y
// holds iff the scan over X finds neither (Theorem 3.9, "OD = FD + OCD").
// CompareRows is the pairwise definition itself; no check uses it.
package order

import (
	"ocd/internal/attr"
	"ocd/internal/relation"
)

// stopCheckMask throttles cooperative-stop polling inside derivations and
// scans: the atomic flag is loaded once per (mask+1) classes, so the hot
// path costs a local counter increment and the occasional load.
const stopCheckMask = 1023

// CompareRows compares tuples at row positions i and j on the attribute list
// X under the ⪯ operator of Definition 2.1, returning -1, 0 or 1. NULLs sort
// first and compare equal to each other (rank encoding guarantees both).
func CompareRows(r *relation.Relation, i, j int, x attr.List) int {
	for _, a := range x {
		ci, cj := r.Code(i, a), r.Code(j, a)
		if ci < cj {
			return -1
		}
		if ci > cj {
			return 1
		}
	}
	return 0
}

// Leq reports p_X ⪯ q_X for row positions p, q.
func Leq(r *relation.Relation, p, q int, x attr.List) bool {
	return CompareRows(r, p, q, x) <= 0
}

// ViolationKind classifies why an OD fails on an instance.
type ViolationKind int

const (
	// Split: two tuples agree on the LHS but differ on the RHS; the
	// embedded functional dependency is violated.
	Split ViolationKind = iota
	// Swap: the LHS strictly increases while the RHS strictly decreases;
	// order compatibility is violated.
	Swap
)

// String names the violation kind.
func (k ViolationKind) String() string {
	if k == Split {
		return "split"
	}
	return "swap"
}

// Violation is a witness pair of row positions falsifying an OD.
type Violation struct {
	Kind ViolationKind
	P, Q int
}

// ODResult reports the outcome of a full OD check.
type ODResult struct {
	// Valid is true when the OD holds: no split and no swap.
	Valid bool
	// HasSplit / HasSwap report which violation kinds occur anywhere in
	// the instance (both may be true). They drive the pruning rules of the
	// discovery algorithms.
	HasSplit bool
	HasSwap  bool
	// SplitWitness / SwapWitness are example violating pairs, valid only
	// when the corresponding Has flag is set.
	SplitWitness Violation
	SwapWitness  Violation
}
