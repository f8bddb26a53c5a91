package order

import (
	"sync"
	"sync/atomic"

	"ocd/internal/attr"
	"ocd/internal/faultinject"
	"ocd/internal/obs"
	"ocd/internal/relation"
	"ocd/internal/spill"
)

// Section 5.3.1 of the paper notes that previous work (ORDER) achieves
// linear row scaling by "performing the check of dependency candidates with
// sorted partitions computed from the data", and that the technique "could
// have been re-implemented in our approach as well". This file does exactly
// that; it is the only checking kernel.
//
// A sorted partition of an attribute list X is the row sequence in ⪯_X
// order together with the boundaries of its equivalence classes (runs of
// rows equal on X). Its power is *incremental derivation*: the sorted
// partition of X∘A is obtained from that of X by stably sorting each class
// by A and splitting it — O(rows) with counting sort, instead of a fresh
// O(rows·log rows) sort of the whole relation.

// SortedPartition is a relation's row order under some attribute list with
// class boundaries.
type SortedPartition struct {
	// Idx holds all row positions in ⪯ order; rows equal on the list keep
	// their original relative order.
	Idx []int32
	// Ends[k] is the exclusive end offset of class k in Idx; classes are
	// maximal runs of rows equal on the partition's list.
	Ends []int32
}

// NumClasses returns the number of equivalence classes.
func (sp *SortedPartition) NumClasses() int { return len(sp.Ends) }

// Base returns the sorted partition of the empty list: one class with all
// rows in original order.
func Base(numRows int) *SortedPartition {
	idx := make([]int32, numRows)
	for i := range idx {
		idx[i] = int32(i)
	}
	ends := []int32{}
	if numRows > 0 {
		ends = []int32{int32(numRows)}
	}
	return &SortedPartition{Idx: idx, Ends: ends}
}

// Extend derives the sorted partition of list∘[a] from the partition of
// list: each class is stably counting-sorted by a's codes and split at code
// changes.
func (sp *SortedPartition) Extend(r *relation.Relation, a attr.ID) *SortedPartition {
	out := &SortedPartition{}
	var counts []int32
	sp.extendInto(out, r.Col(a), nil, &counts)
	return out
}

// extendInto writes the partition of list∘[a] into out, reusing its
// buffers, where codes is a's column. counts is the counting-sort scratch,
// grown as needed. The stop flag is polled once per class (each class is one
// O(class) pass, so the latency bound is a single pass even on skewed
// partitions); false means aborted, and out then holds garbage.
// lint:hot
func (sp *SortedPartition) extendInto(out *SortedPartition, codes []int32, stop *atomic.Bool, counts *[]int32) bool {
	n := len(sp.Idx)
	if cap(out.Idx) < n {
		out.Idx = make([]int32, n)
	}
	out.Idx = out.Idx[:n]
	out.Ends = out.Ends[:0]
	var tick uint32
	start := int32(0)
	for _, end := range sp.Ends {
		tick++
		if tick&stopCheckMask == 0 && stop != nil && stop.Load() {
			return false // aborted mid-derivation
		}
		cls := sp.Idx[start:end]
		dst := out.Idx[start:end]
		if len(cls) <= 24 {
			// Small classes dominate real partitions; a stable insertion
			// sort avoids zeroing a counting array sized by the code
			// *range*, which profiling shows would dwarf everything else.
			copy(dst, cls)
			for i := 1; i < len(dst); i++ {
				row := dst[i]
				j := i
				for j > 0 && codes[dst[j-1]] > codes[row] {
					dst[j] = dst[j-1]
					j--
				}
				dst[j] = row
			}
		} else {
			// Size the counters by the largest code in the class: row
			// slices (HeadRows/SelectRows) keep the parent's code space.
			maxCode := int32(0)
			for _, row := range cls {
				if codes[row] > maxCode {
					maxCode = codes[row]
				}
			}
			k := int(maxCode) + 1
			if cap(*counts) < k+1 {
				*counts = make([]int32, k+1)
			}
			cnt := (*counts)[:k+1]
			clear(cnt)
			for _, row := range cls {
				cnt[codes[row]+1]++
			}
			for c := 1; c <= k; c++ {
				cnt[c] += cnt[c-1]
			}
			for _, row := range cls {
				c := codes[row]
				dst[cnt[c]] = row
				cnt[c]++
			}
		}
		// split boundaries at code changes
		for i := range dst {
			if i+1 == len(dst) || codes[dst[i+1]] != codes[dst[i]] {
				out.Ends = append(out.Ends, start+int32(i)+1)
			}
		}
		start = end
	}
	return stop == nil || !stop.Load()
}

// clone returns a deep copy the caller owns.
func (sp *SortedPartition) clone() *SortedPartition {
	return &SortedPartition{
		Idx:  append([]int32(nil), sp.Idx...),
		Ends: append([]int32(nil), sp.Ends...),
	}
}

// scratch holds the two derivation buffers a multi-column check alternates
// between, plus the counting-sort counters.
type scratch struct {
	a, b   SortedPartition
	counts []int32
}

// PartitionChecker validates OD and OCD candidates against a fixed relation
// with sorted partitions. It caches exactly one partition per column — the
// cache is bounded by the column count and never evicts on its own — and
// derives every longer list from its first column's partition into pooled
// scratch buffers that live only for one check. It is safe for concurrent
// use; the paper's multi-threaded tree traversal (Section 4.2.2) shares one
// checker across workers.
type PartitionChecker struct {
	r    *relation.Relation
	base *SortedPartition
	// single[a] is the sorted partition of [a], nil until first use.
	single []atomic.Pointer[SortedPartition]
	// scratch pools *scratch buffers for derivations of longer lists.
	scratch sync.Pool

	checks atomic.Int64

	// stop, when non-nil and true, aborts checks cooperatively: partition
	// derivations bail mid-pass, aborted checks report invalid, and partial
	// partitions are never cached. Armed by the discovery engine's context
	// watcher.
	stop *atomic.Bool

	// obsHits/obsMisses/obsClasses are pre-resolved instrumentation
	// handles; nil (no-op) unless SetObs attached a registry.
	obsHits    *obs.Counter
	obsMisses  *obs.Counter
	obsClasses *obs.Histogram

	// sm, when non-nil, gives the cache an out-of-core mode: EvictToSpill
	// writes the cached partitions to checksummed disk segments and misses
	// reload them (spill.go).
	sm             *spill.Manager
	spillEvictions atomic.Int64
	spillReloads   atomic.Int64

	obsSpillEvictions  *obs.Counter
	obsSpillReloads    *obs.Counter
	obsSpillRetries    *obs.Counter
	obsSpillRecomputes *obs.Counter
	obsSpillFailures   *obs.Counter
}

// NewPartitionChecker returns a checker over r.
func NewPartitionChecker(r *relation.Relation) *PartitionChecker {
	c := &PartitionChecker{
		r:      r,
		base:   Base(r.NumRows()),
		single: make([]atomic.Pointer[SortedPartition], r.NumCols()),
	}
	c.scratch.New = func() any { return new(scratch) }
	return c
}

// Relation returns the relation the checker operates on.
func (c *PartitionChecker) Relation() *relation.Relation { return c.r }

// SetStopFlag arms cooperative cancellation: once *stop is true, in-flight
// and future checks abort quickly and conservatively report the candidate
// invalid (callers observing the flag must discard, not trust, aborted
// answers). Not safe to call concurrently with checks.
func (c *PartitionChecker) SetStopFlag(stop *atomic.Bool) { c.stop = stop }

// SetObs attaches partition-cache hit/miss counters and the
// classes-per-partition histogram from the registry (a nil registry
// resolves to no-op handles). Not safe to call concurrently with checks.
func (c *PartitionChecker) SetObs(reg *obs.Registry) {
	c.obsHits = reg.Counter("order.partition_cache.hits")
	c.obsMisses = reg.Counter("order.partition_cache.misses")
	c.obsClasses = reg.Histogram("order.partition.classes", obs.ExpBounds(1, 4, 16))
	c.obsSpillEvictions = reg.Counter("order.spill.evictions")
	c.obsSpillReloads = reg.Counter("order.spill.reloads")
	c.obsSpillRetries = reg.Counter("order.spill.retries")
	c.obsSpillRecomputes = reg.Counter("order.spill.recomputes")
	c.obsSpillFailures = reg.Counter("order.spill.write_failures")
}

// stopped reports whether a cooperative stop has been requested.
func (c *PartitionChecker) stopped() bool { return c.stop != nil && c.stop.Load() }

// ReleaseMemory drops every cached single-column partition, the degradation
// step of the engine's soft memory budget. The checker stays fully usable;
// later checks re-derive (and re-cache) what they need.
func (c *PartitionChecker) ReleaseMemory() {
	for i := range c.single {
		c.single[i].Store(nil)
	}
}

// Checks returns the number of candidate checks performed so far, the
// "#checks" statistic of Table 6.
func (c *PartitionChecker) Checks() int64 { return c.checks.Load() }

// column returns the cached sorted partition of [a], deriving it from the
// base partition (or reloading it from spill) on a miss. nil means a stop
// aborted the derivation; nothing partial is cached.
func (c *PartitionChecker) column(a attr.ID) *SortedPartition {
	slot := &c.single[a]
	if sp := slot.Load(); sp != nil {
		c.obsHits.Inc()
		return sp
	}
	c.obsMisses.Inc()
	// A spilled segment beats re-deriving: one verified disk read vs a
	// counting pass. Damaged or missing segments fall through to
	// derivation — always correct, never wrong results.
	var sp *SortedPartition
	if c.sm != nil {
		sp = c.loadSpilled(a)
	}
	if sp == nil {
		sp = &SortedPartition{}
		var counts []int32
		if !c.base.extendInto(sp, c.r.Col(a), c.stop, &counts) {
			return nil
		}
	}
	faultinject.Point("order.partition.cacheput")
	slot.Store(sp)
	c.obsClasses.Observe(int64(sp.NumClasses()))
	return sp
}

// derive returns the sorted partition of x∘y. A one-column list is its
// cached partition and s is nil; a longer list is derived from its first
// column's partition through the pooled scratch s, which the caller hands
// back with release once it has scanned the result. A nil partition means
// a stop aborted the derivation.
// lint:hot
func (c *PartitionChecker) derive(x, y attr.List) (sp *SortedPartition, s *scratch) {
	n := len(x) + len(y)
	at := func(i int) attr.ID {
		if i < len(x) {
			return x[i]
		}
		return y[i-len(x)]
	}
	if n == 0 {
		return c.base, nil
	}
	sp = c.column(at(0))
	if sp == nil || n == 1 {
		return sp, nil
	}
	s = c.scratch.Get().(*scratch)
	dst := &s.a
	// Once every class is a single row, further attributes change nothing.
	for i := 1; i < n && sp.NumClasses() < len(sp.Idx); i++ {
		if c.stopped() || !sp.extendInto(dst, c.r.Col(at(i)), c.stop, &s.counts) {
			c.release(s)
			return nil, nil
		}
		sp = dst
		if dst == &s.a {
			dst = &s.b
		} else {
			dst = &s.a
		}
	}
	c.obsClasses.Observe(int64(sp.NumClasses()))
	return sp, s
}

// release returns derivation scratch to the pool; nil is a no-op.
func (c *PartitionChecker) release(s *scratch) {
	if s != nil {
		c.scratch.Put(s)
	}
}

// Partition returns the sorted partition of the list as a fresh copy the
// caller owns. A nil return means the derivation was aborted by the stop
// flag.
func (c *PartitionChecker) Partition(x attr.List) *SortedPartition {
	sp, s := c.derive(x, nil)
	defer c.release(s)
	if sp == nil {
		return nil
	}
	return sp.clone()
}

// CheckOD reports whether X → Y holds, scanning X's sorted partition: rows
// inside one class must agree on Y (else a split), and Y must never
// decrease across the class sequence (else a swap).
// lint:hot
func (c *PartitionChecker) CheckOD(x, y attr.List) bool {
	c.checks.Add(1)
	faultinject.Point("order.partition.check")
	sp, s := c.derive(x, nil)
	defer c.release(s)
	if sp == nil {
		return false // aborted derivation: conservatively invalid
	}
	r := c.r
	prev := -1
	start := int32(0)
	for k, end := range sp.Ends {
		if uint32(k)&stopCheckMask == 0 && c.stopped() {
			return false // aborted scan: conservatively invalid
		}
		cls := sp.Idx[start:end]
		rep := int(cls[0])
		for _, row := range cls[1:] {
			if CompareRows(r, rep, int(row), y) != 0 {
				return false // split
			}
		}
		if prev >= 0 && CompareRows(r, prev, rep, y) > 0 {
			return false // swap
		}
		prev = rep
		start = end
	}
	return true
}

// CheckOCD reports whether X ~ Y holds via Theorem 4.1's single check: in
// the sorted partition of XY, the projection on YX must be non-decreasing.
// Splits cannot occur (classes of XY agree on Y and X), so only the
// cross-class scan is needed.
// lint:hot
func (c *PartitionChecker) CheckOCD(x, y attr.List) bool {
	c.checks.Add(1)
	faultinject.Point("order.partition.check")
	sp, s := c.derive(x, y)
	defer c.release(s)
	if sp == nil {
		return false // aborted derivation: conservatively invalid
	}
	r := c.r
	prev := -1
	start := int32(0)
	for k, end := range sp.Ends {
		if uint32(k)&stopCheckMask == 0 && c.stopped() {
			return false // aborted scan: conservatively invalid
		}
		rep := int(sp.Idx[start])
		if prev >= 0 {
			cmp := CompareRows(r, prev, rep, y)
			if cmp == 0 {
				cmp = CompareRows(r, prev, rep, x)
			}
			if cmp > 0 {
				return false
			}
		}
		prev = rep
		start = end
	}
	return true
}

// CheckODFull checks X → Y and classifies the violations: a class of X whose
// rows differ on Y is a split; a row whose Y is below the largest Y of an
// earlier class is a swap. Both witnesses are genuine violating pairs.
func (c *PartitionChecker) CheckODFull(x, y attr.List) ODResult {
	c.checks.Add(1)
	faultinject.Point("order.partition.check")
	sp, s := c.derive(x, nil)
	defer c.release(s)
	if sp == nil {
		// Aborted derivation: conservatively report both violation kinds so
		// no pruning rule treats the candidate as verified.
		return ODResult{HasSplit: true, HasSwap: true}
	}
	r := c.r
	res := ODResult{Valid: true}
	start := int32(0)
	// maxRow is the row with the largest Y over all earlier classes: a swap
	// exists iff some class's smallest Y is below it.
	maxRow := -1
	for k, end := range sp.Ends {
		if uint32(k)&stopCheckMask == 0 && c.stopped() {
			return ODResult{HasSplit: true, HasSwap: true} // aborted scan
		}
		cls := sp.Idx[start:end]
		start = end
		lo, hi := int(cls[0]), int(cls[0])
		for _, row := range cls[1:] {
			if CompareRows(r, int(row), lo, y) < 0 {
				lo = int(row)
			}
			if CompareRows(r, int(row), hi, y) > 0 {
				hi = int(row)
			}
		}
		if !res.HasSplit && lo != hi {
			res.HasSplit = true
			res.SplitWitness = Violation{Kind: Split, P: lo, Q: hi}
		}
		if !res.HasSwap && maxRow >= 0 && CompareRows(r, maxRow, lo, y) > 0 {
			res.HasSwap = true
			res.SwapWitness = Violation{Kind: Swap, P: maxRow, Q: lo}
		}
		if res.HasSplit && res.HasSwap {
			break // nothing more to learn
		}
		if maxRow < 0 || CompareRows(r, hi, maxRow, y) > 0 {
			maxRow = hi
		}
	}
	res.Valid = !res.HasSplit && !res.HasSwap
	return res
}

// OrderEquivalent reports X ↔ Y (both X → Y and Y → X hold).
func (c *PartitionChecker) OrderEquivalent(x, y attr.List) bool {
	return c.CheckOD(x, y) && c.CheckOD(y, x)
}

// IsConstantList reports whether every attribute in x is constant; the empty
// list is trivially constant.
func (c *PartitionChecker) IsConstantList(x attr.List) bool {
	for _, a := range x {
		if !c.r.IsConstant(a) {
			return false
		}
	}
	return true
}
