package order

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ocd/internal/attr"
	"ocd/internal/spill"
)

// This file gives the checker an out-of-core mode: when a spill manager is
// attached (SetSpill), EvictToSpill — the first rung of the engine's memory
// budget — writes the cached single-column partitions to checksummed disk
// segments, and a later cache miss tries to reload the segment before
// recomputing from rank codes. Without a tripped budget nothing is spilled:
// the cache is bounded by the column count and never evicts on its own.
//
// Spilled entries are pure cache — everything here can be rebuilt from the
// relation — so spill I/O failures degrade instead of propagating, in a
// fixed ladder (docs/ROBUSTNESS.md):
//
//  1. retry the read/write once (transient fault);
//  2. drop the segment and recompute from rank codes (always correct);
//  3. only the engine-level budget check, finding no spill progress at
//     all, may then truncate the run with reason "memory-budget".
//
// No rung returns unproven data: a torn or bit-flipped segment fails the
// spill package's checksum verification, and the structural decode below
// re-validates shape before anything reaches a check.

// encodePartition serializes a sorted partition: two little-endian uint64
// lengths followed by Idx and Ends as little-endian int32s.
func encodePartition(sp *SortedPartition) []byte {
	buf := make([]byte, 16+4*len(sp.Idx)+4*len(sp.Ends))
	binary.LittleEndian.PutUint64(buf[0:], uint64(len(sp.Idx)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(sp.Ends)))
	off := 16
	for _, v := range sp.Idx {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	for _, v := range sp.Ends {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	return buf
}

// errSpillShape is wrapped into decode errors for structurally invalid
// payloads; callers treat it like any other damaged segment (drop and
// recompute).
var errSpillShape = errors.New("order: spilled payload has invalid shape")

// decodePartition deserializes and structurally validates a partition for
// a relation of numRows rows: rows in range, class ends strictly
// increasing and covering Idx exactly. A valid checksum already rules out
// accidental damage; this guards the engine against using a segment from
// a different relation shape.
func decodePartition(payload []byte, numRows int) (*SortedPartition, error) {
	if len(payload) < 16 {
		return nil, fmt.Errorf("%w: %d bytes", errSpillShape, len(payload))
	}
	nIdx := binary.LittleEndian.Uint64(payload[0:])
	nEnds := binary.LittleEndian.Uint64(payload[8:])
	if nIdx != uint64(numRows) || nEnds > nIdx+1 {
		return nil, fmt.Errorf("%w: %d rows, %d classes for a %d-row relation", errSpillShape, nIdx, nEnds, numRows)
	}
	if uint64(len(payload)) != 16+4*nIdx+4*nEnds {
		return nil, fmt.Errorf("%w: %d bytes for %d rows, %d classes", errSpillShape, len(payload), nIdx, nEnds)
	}
	sp := &SortedPartition{
		Idx:  make([]int32, nIdx),
		Ends: make([]int32, nEnds),
	}
	off := 16
	for i := range sp.Idx {
		v := int32(binary.LittleEndian.Uint32(payload[off:]))
		if v < 0 || int(v) >= numRows {
			return nil, fmt.Errorf("%w: row %d out of range", errSpillShape, v)
		}
		sp.Idx[i] = v
		off += 4
	}
	prev := int32(0)
	for i := range sp.Ends {
		v := int32(binary.LittleEndian.Uint32(payload[off:]))
		if v <= prev {
			return nil, fmt.Errorf("%w: class ends not increasing", errSpillShape)
		}
		sp.Ends[i] = v
		prev = v
		off += 4
	}
	if numRows > 0 && (nEnds == 0 || prev != int32(numRows)) {
		return nil, fmt.Errorf("%w: classes cover %d of %d rows", errSpillShape, prev, numRows)
	}
	return sp, nil
}

// spillPut writes one payload with the write rung of the ladder: retry
// once on failure, then give up (the entry is recomputed on demand).
// Reports whether the payload is durably spilled.
func (c *PartitionChecker) spillPut(key string, payload []byte) bool {
	if err := c.sm.Put(key, payload); err != nil {
		c.obsSpillRetries.Inc()
		if err := c.sm.Put(key, payload); err != nil {
			c.obsSpillFailures.Inc()
			return false
		}
	}
	return true
}

// spillGet reads one payload with the read rung of the ladder: retry once
// on any failure, then drop the segment so the caller recomputes from rank
// codes. nil means no usable segment.
func (c *PartitionChecker) spillGet(key string) []byte {
	payload, err := c.sm.Get(key)
	if err != nil {
		if errors.Is(err, spill.ErrNoSegment) {
			return nil
		}
		c.obsSpillRetries.Inc()
		payload, err = c.sm.Get(key)
		if err != nil {
			// Torn, corrupt, or persistently failing: the segment is useless.
			// Forget it and let the caller recompute — never use damaged data.
			c.sm.Drop(key)
			c.obsSpillRecomputes.Inc()
			return nil
		}
	}
	return payload
}

// SetSpill attaches a spill manager: EvictToSpill writes to it and misses
// reload from it. Not safe to call concurrently with checks.
func (c *PartitionChecker) SetSpill(sm *spill.Manager) { c.sm = sm }

// SpillStats returns how many partitions were spilled to disk and how many
// were reloaded from it.
func (c *PartitionChecker) SpillStats() (evictions, reloads int64) {
	return c.spillEvictions.Load(), c.spillReloads.Load()
}

// spillKey names the segment holding the partition of column a.
func spillKey(a attr.ID) string { return attr.Singleton(a).Key() }

// spillPartition writes one evicted partition to the spill manager,
// following the write ladder.
func (c *PartitionChecker) spillPartition(a attr.ID, sp *SortedPartition) bool {
	if !c.spillPut(spillKey(a), encodePartition(sp)) {
		return false
	}
	c.spillEvictions.Add(1)
	c.obsSpillEvictions.Inc()
	return true
}

// loadSpilled reloads the partition of column a from the spill manager,
// following the read ladder. nil means recompute.
func (c *PartitionChecker) loadSpilled(a attr.ID) *SortedPartition {
	key := spillKey(a)
	payload := c.spillGet(key)
	if payload == nil {
		return nil
	}
	sp, err := decodePartition(payload, c.r.NumRows())
	if err != nil {
		c.sm.Drop(key)
		c.obsSpillRecomputes.Inc()
		return nil
	}
	c.spillReloads.Add(1)
	c.obsSpillReloads.Inc()
	return sp
}

// EvictToSpill moves every cached partition to disk and clears the memory
// cache — the engine's first response to a tripped memory budget. Returns
// the number of partitions durably spilled; 0 (nothing cached, or no spill
// manager, or every write failed) tells the engine this rung made no
// progress.
func (c *PartitionChecker) EvictToSpill() int {
	if c.sm == nil {
		return 0
	}
	n := 0
	for i := range c.single {
		if sd := c.single[i].Swap(nil); sd != nil && c.spillPartition(attr.ID(i), &sd.SortedPartition) {
			n++
		}
	}
	return n
}
