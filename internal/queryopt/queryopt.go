// Package queryopt applies discovered order dependencies to the paper's
// motivating application (Section 1): simplifying SQL ORDER BY clauses.
// If the prefix P of an ORDER BY list already orders the full list — i.e.
// the OD P → full holds — the remaining columns are redundant and can be
// dropped, exactly the rewrite the introduction performs on
//
//	ORDER BY income, bracket, tax  ⇒  ORDER BY income
//
// given income → bracket and income → tax.
package queryopt

import (
	"fmt"
	"strings"

	"ocd/internal/attr"
	"ocd/internal/order"
	"ocd/internal/relation"
)

// Optimizer rewrites ORDER BY lists against a fixed relation instance,
// verifying candidate rewrites with direct order checks (the same primitive
// the discovery algorithm uses), so every rewrite it returns is guaranteed
// valid on the instance.
type Optimizer struct {
	r   *relation.Relation
	chk *order.PartitionChecker
}

// New returns an optimizer for the relation.
func New(r *relation.Relation) *Optimizer {
	return &Optimizer{r: r, chk: order.NewPartitionChecker(r)}
}

// Simplify returns the shortest prefix P of cols such that ordering by P
// implies the full ordering (P → cols holds on the instance), along with
// the number of columns dropped. The full list always satisfies itself, so
// the result is never longer than the input.
func (o *Optimizer) Simplify(cols attr.List) (attr.List, int) {
	norm := cols.Dedup() // ORDER BY a, a ≡ ORDER BY a (AX3)
	for k := 0; k <= len(norm); k++ {
		prefix := norm[:k]
		if o.chk.CheckOD(prefix, norm) {
			return prefix.Clone(), len(cols) - k
		}
	}
	return norm, len(cols) - len(norm) // unreachable: k = len(norm) holds
}

// SimplifyQuery parses a minimal "SELECT ... ORDER BY c1, c2, ..." tail,
// rewrites the ORDER BY list and returns the rewritten clause. Column names
// are resolved against the relation's schema; unknown columns are an error.
func (o *Optimizer) SimplifyQuery(orderBy string) (string, error) {
	parts := strings.Split(orderBy, ",")
	cols := make(attr.List, 0, len(parts))
	for _, p := range parts {
		name := strings.TrimSpace(p)
		if name == "" {
			continue
		}
		id, ok := o.r.ColIndex(name)
		if !ok {
			return "", fmt.Errorf("unknown column %q in ORDER BY", name)
		}
		cols = append(cols, id)
	}
	simplified, _ := o.Simplify(cols)
	names := make([]string, len(simplified))
	for i, c := range simplified {
		names[i] = o.r.ColName(c)
	}
	return strings.Join(names, ", "), nil
}

// Redundant reports whether appending next to prefix adds no ordering power
// on the instance: prefix → prefix∘[next] already holds.
func (o *Optimizer) Redundant(prefix attr.List, next attr.ID) bool {
	return o.chk.CheckOD(prefix, prefix.Append(next))
}
