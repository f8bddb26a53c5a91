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
//
// A Side adds each row's class rank, so comparing two rows on X is one
// int32 comparison. Every check is then one scan over one side's classes
// reading the other side's ranks (scan below).

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

// Side is the sorted partition of an attribute list together with a rank
// for every row that orders rows exactly as the list's ⪯ does: rows of one
// class share a rank, and earlier classes have smaller ranks. The side of a
// single column needs no memory of its own: its partition is the cached
// column partition and its ranks are the column's rank codes. A longer
// list's ranks are its class indexes. Sides are immutable once built, so
// the discovery engine shares a parent's side with all of its children.
type Side struct {
	SortedPartition
	// Rank is indexed by row position. It is nil on a side that ExtendSide
	// left in scratch; Keep fills it.
	Rank []int32
}

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

// fillRanks writes each row's class index into rank.
// lint:hot
func (sp *SortedPartition) fillRanks(rank []int32) {
	start := int32(0)
	// lint:allow ctxflow — one O(rows) pass with no early exit, like the copy that precedes it
	for k, end := range sp.Ends {
		for _, row := range sp.Idx[start:end] {
			rank[row] = int32(k)
		}
		start = end
	}
}

// singletons reports whether every class holds one row, so that extending
// the list by any attribute leaves the partition unchanged.
func (sp *SortedPartition) singletons() bool { return len(sp.Ends) == len(sp.Idx) }

// clone returns a deep copy the caller owns.
func (sp *SortedPartition) clone() *SortedPartition {
	return &SortedPartition{
		Idx:  append([]int32(nil), sp.Idx...),
		Ends: append([]int32(nil), sp.Ends...),
	}
}

// Scratch holds one side derived into pooled buffers: the side, the
// alternate derivation buffer and the counting-sort counters. A side in
// scratch lives until the scratch goes back to the pool, through Keep or
// Release.
type Scratch struct {
	side   Side
	alt    SortedPartition
	rank   []int32
	counts []int32
}

// PartitionChecker validates OD and OCD candidates against a fixed relation
// with sorted partitions. It caches exactly one side per column — the cache
// is bounded by the column count and never evicts on its own — and derives
// every longer list from its first column's partition into pooled scratch
// buffers. It is safe for concurrent use; the paper's multi-threaded tree
// traversal (Section 4.2.2) shares one checker across workers.
type PartitionChecker struct {
	r *relation.Relation
	// base is the side of the empty list: one class, every rank zero.
	base *Side
	// single[a] is the side of [a], nil until first use.
	single []atomic.Pointer[Side]
	// scratch pools *Scratch buffers for derivations of longer lists.
	scratch sync.Pool

	checks atomic.Int64

	// stop, when non-nil and true, aborts checks cooperatively: partition
	// derivations bail mid-pass, aborted checks report invalid, and partial
	// partitions are never cached. Armed by the discovery engine's context
	// watcher.
	stop *atomic.Bool

	// obs* are pre-resolved instrumentation handles; nil (no-op) unless
	// SetObs attached a registry.
	obsHits        *obs.Counter
	obsMisses      *obs.Counter
	obsClasses     *obs.Histogram
	obsDerived     *obs.Counter
	obsRowsDerived *obs.Counter

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
		base:   &Side{SortedPartition: *Base(r.NumRows()), Rank: make([]int32, r.NumRows())},
		single: make([]atomic.Pointer[Side], r.NumCols()),
	}
	c.scratch.New = func() any { return new(Scratch) }
	return c
}

// Relation returns the relation the checker operates on.
func (c *PartitionChecker) Relation() *relation.Relation { return c.r }

// SetStopFlag arms cooperative cancellation: once *stop is true, in-flight
// and future checks abort quickly and conservatively report the candidate
// invalid (callers observing the flag must discard, not trust, aborted
// answers). Not safe to call concurrently with checks.
func (c *PartitionChecker) SetStopFlag(stop *atomic.Bool) { c.stop = stop }

// SetObs attaches the partition-cache hit/miss counters, the derivation
// work counters and the classes-per-partition histogram from the registry
// (a nil registry resolves to no-op handles). Not safe to call concurrently
// with checks.
func (c *PartitionChecker) SetObs(reg *obs.Registry) {
	c.obsHits = reg.Counter("order.partition_cache.hits")
	c.obsMisses = reg.Counter("order.partition_cache.misses")
	c.obsClasses = reg.Histogram("order.partition.classes", obs.ExpBounds(1, 4, 16))
	c.obsDerived = reg.Counter("order.partitions_derived")
	c.obsRowsDerived = reg.Counter("order.rows_derived")
	c.obsSpillEvictions = reg.Counter("order.spill.evictions")
	c.obsSpillReloads = reg.Counter("order.spill.reloads")
	c.obsSpillRetries = reg.Counter("order.spill.retries")
	c.obsSpillRecomputes = reg.Counter("order.spill.recomputes")
	c.obsSpillFailures = reg.Counter("order.spill.write_failures")
}

// stopped reports whether a cooperative stop has been requested.
func (c *PartitionChecker) stopped() bool { return c.stop != nil && c.stop.Load() }

// ReleaseMemory drops every cached single-column side, the degradation
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

// extend derives sp∘[a] into dst and counts the derivation. False means a
// stop aborted it.
func (c *PartitionChecker) extend(sp, dst *SortedPartition, a attr.ID, counts *[]int32) bool {
	if !sp.extendInto(dst, c.r.Col(a), c.stop, counts) {
		return false
	}
	c.obsDerived.Inc()
	c.obsRowsDerived.Add(int64(len(sp.Idx)))
	c.obsClasses.Observe(int64(dst.NumClasses()))
	return true
}

// column returns the cached side of [a], deriving its partition from the
// base partition (or reloading it from spill) on a miss. nil means a stop
// aborted the derivation; nothing partial is cached.
func (c *PartitionChecker) column(a attr.ID) *Side {
	slot := &c.single[a]
	if sd := slot.Load(); sd != nil {
		c.obsHits.Inc()
		return sd
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
		if !c.extend(&c.base.SortedPartition, sp, a, &counts) {
			return nil
		}
	}
	faultinject.Point("order.partition.cacheput")
	sd := &Side{SortedPartition: *sp, Rank: c.r.Col(a)}
	slot.Store(sd)
	return sd
}

// DeriveSide returns the side of x. The empty list and single columns are
// served from the checker itself with a nil Scratch; a longer list is
// derived from its first column's partition into pooled scratch, which the
// caller hands back through Keep or Release. A nil side means a stop
// aborted the derivation.
// lint:hot
func (c *PartitionChecker) DeriveSide(x attr.List) (*Side, *Scratch) {
	if len(x) == 0 {
		return c.base, nil
	}
	col := c.column(x[0])
	if col == nil || len(x) == 1 || col.singletons() {
		// Once every class is a single row, further attributes change
		// nothing, and the column's codes already rank the rows.
		return col, nil
	}
	s := c.scratch.Get().(*Scratch)
	sp, dst, alt := &col.SortedPartition, &s.side.SortedPartition, &s.alt
	for _, a := range x[1:] {
		if sp.singletons() {
			break
		}
		if c.stopped() || !c.extend(sp, dst, a, &s.counts) {
			c.Release(s)
			return nil, nil
		}
		sp = dst
		dst, alt = alt, dst
	}
	if sp != &s.side.SortedPartition {
		s.side.SortedPartition, s.alt = s.alt, s.side.SortedPartition
	}
	n := len(s.side.Idx)
	if cap(s.rank) < n {
		s.rank = make([]int32, n)
	}
	s.side.Rank = s.rank[:n]
	s.side.fillRanks(s.side.Rank)
	return &s.side, s
}

// ExtendSide derives the side of the parent's list ∘ [a] into pooled
// scratch: one counting-sort pass, and no ranks until Keep fills them. A
// parent whose classes are all single rows is its own extension and comes
// back with a nil Scratch. A nil side means a stop aborted the derivation.
func (c *PartitionChecker) ExtendSide(parent *Side, a attr.ID) (*Side, *Scratch) {
	if parent.singletons() {
		return parent, nil
	}
	s := c.scratch.Get().(*Scratch)
	if c.stopped() || !c.extend(&parent.SortedPartition, &s.side.SortedPartition, a, &s.counts) {
		c.Release(s)
		return nil, nil
	}
	s.side.Rank = nil
	return &s.side, s
}

// Keep returns a side the caller may hold for as long as it likes and
// releases s. A side served without scratch is returned as is; a side in
// scratch is copied into one allocation, with its ranks filled if
// ExtendSide left them out.
func (c *PartitionChecker) Keep(sd *Side, s *Scratch) *Side {
	if s == nil {
		return sd
	}
	n, k := len(sd.Idx), len(sd.Ends)
	buf := make([]int32, 2*n+k)
	out := &Side{
		SortedPartition: SortedPartition{Idx: buf[:n:n], Ends: buf[2*n:]},
		Rank:            buf[n : 2*n : 2*n],
	}
	copy(out.Idx, sd.Idx)
	copy(out.Ends, sd.Ends)
	if sd.Rank != nil {
		copy(out.Rank, sd.Rank)
	} else {
		out.fillRanks(out.Rank)
	}
	c.Release(s)
	return out
}

// Release returns derivation scratch to the pool; nil is a no-op.
func (c *PartitionChecker) Release(s *Scratch) {
	if s != nil {
		c.scratch.Put(s)
	}
}

// rankSide returns a side whose ranks are those of x. A single column's
// codes rank its rows without any partition, so its side is built on the
// spot; a longer list is derived through DeriveSide.
func (c *PartitionChecker) rankSide(x attr.List) (*Side, *Scratch) {
	if len(x) == 1 {
		return &Side{Rank: c.r.Col(x[0])}, nil
	}
	return c.DeriveSide(x)
}

// scanMode says how far a scan must go.
type scanMode int

const (
	// untilSwap decides X ~ Y: the scan stops at the first swap.
	untilSwap scanMode = iota
	// untilViolation decides X → Y: the scan stops at the first split or
	// swap.
	untilViolation
	// classify finds both violation kinds, with witnesses.
	classify
)

// scan is the one checking pass. It walks the classes of sp — one side's
// partition — in ⪯ order and reads the other side's rank of every row:
//
//   - a split is a class whose minimum and maximum ranks differ (equal on
//     the scanned side, different on the other);
//   - a swap is a class whose minimum rank is below the running maximum of
//     the earlier classes (strictly increasing on the scanned side,
//     strictly decreasing on the other).
//
// X → Y holds iff the scan over X with Y's ranks finds neither (Theorem
// 3.9); X ~ Y holds iff it finds no swap, and because a swap is symmetric
// the scan may go over either side (Theorem 4.1). The other modes stop as
// soon as their verdict is in; classify stops only once it has found both
// kinds, and its witnesses are the first rows of the class holding its minimum and
// maximum rank (split) and the first rows holding the running maximum and
// the class minimum (swap). ok is false when a stop aborted the scan.
// lint:hot
func (c *PartitionChecker) scan(sp *SortedPartition, rank []int32, mode scanMode) (res ODResult, ok bool) {
	maxRow, maxRank := int32(-1), int32(-1) // ranks are never negative
	start := int32(0)
	for k, end := range sp.Ends {
		if uint32(k)&stopCheckMask == 0 && c.stopped() {
			return res, false
		}
		cls := sp.Idx[start:end]
		start = end
		lo, hi := cls[0], cls[0]
		loRank, hiRank := rank[lo], rank[lo]
		if mode == classify || loRank >= maxRank {
			for _, row := range cls[1:] {
				r := rank[row]
				if r < loRank {
					lo, loRank = row, r
				} else if r > hiRank {
					hi, hiRank = row, r
				} else {
					continue
				}
				// A second rank is a split, a rank below the running
				// maximum a swap: the rest of the class cannot change a
				// verdict that is already in.
				if mode == untilViolation || mode == untilSwap && loRank < maxRank {
					break
				}
			}
		}
		if !res.HasSplit && loRank != hiRank {
			res.HasSplit = true
			res.SplitWitness = Violation{Kind: Split, P: int(lo), Q: int(hi)}
		}
		if !res.HasSwap && loRank < maxRank {
			res.HasSwap = true
			res.SwapWitness = Violation{Kind: Swap, P: int(maxRow), Q: int(lo)}
		}
		if res.HasSwap && mode != classify || res.HasSplit && (mode == untilViolation || res.HasSwap) {
			break // nothing more to learn
		}
		if hiRank > maxRank {
			maxRow, maxRank = hi, hiRank
		}
	}
	res.Valid = !res.HasSplit && !res.HasSwap
	return res, true
}

// check counts one check and runs one scan over x's partition reading y's
// ranks. An aborted derivation (a nil side) or scan conservatively reports
// both violation kinds, so no caller or pruning rule treats the candidate
// as verified.
func (c *PartitionChecker) check(x, y *Side, mode scanMode) ODResult {
	c.checks.Add(1)
	faultinject.Point("order.partition.check")
	if x == nil || y == nil {
		return ODResult{HasSplit: true, HasSwap: true}
	}
	res, ok := c.scan(&x.SortedPartition, y.Rank, mode)
	if !ok {
		return ODResult{HasSplit: true, HasSwap: true}
	}
	return res
}

// CheckOCDSides reports whether X ~ Y holds with one scan over x's
// partition reading y's ranks (x's ranks are not needed). Either side may
// be nil after an aborted derivation; the check then reports invalid.
func (c *PartitionChecker) CheckOCDSides(x, y *Side) bool {
	return !c.check(x, y, untilSwap).HasSwap
}

// CheckODSides reports whether X → Y holds with one scan over x's
// partition reading y's ranks.
func (c *PartitionChecker) CheckODSides(x, y *Side) bool {
	return c.check(x, y, untilViolation).Valid
}

// Partition returns the sorted partition of the list as a fresh copy the
// caller owns. A nil return means the derivation was aborted by the stop
// flag.
func (c *PartitionChecker) Partition(x attr.List) *SortedPartition {
	sd, s := c.DeriveSide(x)
	defer c.Release(s)
	if sd == nil {
		return nil
	}
	return sd.clone()
}

// odCheck runs one scan over X's side with Y's ranks.
func (c *PartitionChecker) odCheck(x, y attr.List, mode scanMode) ODResult {
	xs, sx := c.DeriveSide(x)
	defer c.Release(sx)
	ys, sy := c.rankSide(y)
	defer c.Release(sy)
	return c.check(xs, ys, mode)
}

// CheckOD reports whether X → Y holds: rows inside one class of X must
// agree on Y (else a split), and Y must never decrease across the class
// sequence (else a swap).
func (c *PartitionChecker) CheckOD(x, y attr.List) bool {
	return c.odCheck(x, y, untilViolation).Valid
}

// CheckOCD reports whether X ~ Y holds via Theorem 4.1's single check: no
// swap between X and Y. The scan goes over the longer list, so a single
// column on the other side is read straight from its rank codes.
func (c *PartitionChecker) CheckOCD(x, y attr.List) bool {
	if len(y) > len(x) {
		x, y = y, x
	}
	return !c.odCheck(x, y, untilSwap).HasSwap
}

// CheckODFull checks X → Y and classifies the violations: a class of X whose
// rows differ on Y is a split; a row whose Y is below the largest Y of an
// earlier class is a swap. Both witnesses are genuine violating pairs.
func (c *PartitionChecker) CheckODFull(x, y attr.List) ODResult {
	return c.odCheck(x, y, classify)
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
