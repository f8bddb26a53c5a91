// Package a exercises the lockbalance dataflow patterns.
package a

import (
	"sort"
	"sync"
	"time"
)

type cache struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	m   map[string]int
	out chan int
}

// GoodEarlyUnlock releases on both the hit and miss paths: no finding.
func GoodEarlyUnlock(c *cache, k string) int {
	c.mu.Lock()
	if v, ok := c.m[k]; ok {
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()
	return -1
}

// GoodDefer covers every path with one deferred release.
func GoodDefer(c *cache, k string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[k]; ok {
		return v
	}
	return -1
}

// GoodLoop locks and unlocks per iteration, including the continue
// path.
func GoodLoop(c *cache, keys []string) {
	for _, k := range keys {
		c.mu.Lock()
		if k == "" {
			c.mu.Unlock()
			continue
		}
		c.m[k]++
		c.mu.Unlock()
	}
}

// LeakOnHit forgets to release before the early return.
func LeakOnHit(c *cache, k string) int {
	c.mu.Lock() // want `c\.mu\.Lock\(\) is not released on every path`
	if v, ok := c.m[k]; ok {
		return v
	}
	c.mu.Unlock()
	return -1
}

// LeakInSwitch releases in only one case arm.
func LeakInSwitch(c *cache, k string) int {
	c.mu.Lock() // want `c\.mu\.Lock\(\) is not released on every path`
	switch k {
	case "x":
		c.mu.Unlock()
		return 1
	case "y":
		return 2
	}
	c.mu.Unlock()
	return 0
}

// DoubleLock re-acquires a mutex that is already held.
func DoubleLock(c *cache) {
	c.mu.Lock()
	c.mu.Lock() // want `c\.mu\.Lock\(\) while c\.mu is already held: self-deadlock`
	c.mu.Unlock()
}

// RWLeak loses the read lock on the early return; read and write locks
// are tracked as separate acquisitions.
func RWLeak(c *cache, k string) int {
	c.rw.RLock() // want `c\.rw\.RLock\(\) is not released on every path`
	if v, ok := c.m[k]; ok {
		return v
	}
	c.rw.RUnlock()
	return -1
}

// SortWhileLocked runs an O(n log n) sort inside the critical section.
func SortWhileLocked(c *cache, xs []int) {
	c.mu.Lock()
	sort.Ints(xs) // want `sort\.Ints while c\.mu is held`
	c.mu.Unlock()
}

// SendWhileLocked blocks on a channel send with the mutex held.
func SendWhileLocked(c *cache, v int) {
	c.mu.Lock()
	c.out <- v // want `channel send while c\.mu is held`
	c.mu.Unlock()
}

// RecvWhileLocked blocks on a channel receive with the mutex held.
func RecvWhileLocked(c *cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return <-c.out // want `channel receive while c\.mu is held`
}

// WaitWhileLocked parks every other worker behind the fan-in barrier.
func WaitWhileLocked(c *cache, wg *sync.WaitGroup) {
	c.mu.Lock()
	wg.Wait() // want `sync\.WaitGroup\.Wait while c\.mu is held`
	c.mu.Unlock()
}

// SleepWhileLocked holds the lock across a timer.
func SleepWhileLocked(c *cache) {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while c\.mu is held`
	c.mu.Unlock()
}

// partitions mimics the checker's derivation helpers.
type partitions struct{ idx []int32 }

func (p *partitions) Extend(a int) *partitions                 { return p }
func (p *partitions) extendInto(out *partitions, a int) bool   { return true }
func (p *partitions) derive(x, y []int) (*partitions, *cache)  { return p, nil }
func (p *partitions) Partition(x []int) *partitions            { return p }
func (p *partitions) DeriveSide(x []int) (*partitions, *cache) { return p, nil }
func (p *partitions) ExtendSide(q *partitions, a int) (*partitions, *cache) {
	return q, nil
}

// DeriveWhileLocked runs every partition derivation helper with the mutex
// held.
func DeriveWhileLocked(c *cache, p *partitions) {
	c.mu.Lock()
	p.Extend(1)        // want `partition derivation Extend while c\.mu is held`
	p.extendInto(p, 1) // want `partition derivation extendInto while c\.mu is held`
	p.derive(nil, nil) // want `partition derivation derive while c\.mu is held`
	p.Partition(nil)   // want `partition derivation Partition while c\.mu is held`
	c.mu.Unlock()
}

// DeriveSideWhileLocked derives the sides of a candidate with the mutex
// held.
func DeriveSideWhileLocked(c *cache, p *partitions) {
	c.mu.Lock()
	defer c.mu.Unlock()
	parent, _ := p.DeriveSide(nil) // want `partition derivation DeriveSide while c\.mu is held`
	p.ExtendSide(parent, 1)        // want `partition derivation ExtendSide while c\.mu is held`
}

// DeriveOutsideLock probes under the lock and derives after it: no finding.
func DeriveOutsideLock(c *cache, p *partitions, k string) *partitions {
	c.mu.Lock()
	_, ok := c.m[k]
	c.mu.Unlock()
	if ok {
		return p
	}
	return p.Partition(nil)
}

// SortOutsideLock hoists the expensive work out: no finding.
func SortOutsideLock(c *cache, xs []int) {
	sort.Ints(xs)
	c.mu.Lock()
	c.m["n"] = len(xs)
	c.mu.Unlock()
}

// Allowed documents a deliberate in-lock sort.
func Allowed(c *cache, xs []int) {
	c.mu.Lock()
	// lint:allow lockbalance — xs has at most 3 elements here
	sort.Ints(xs)
	c.mu.Unlock()
}

// AllowedLeak hands the lock to the caller by contract.
func AllowedLeak(c *cache) {
	c.mu.Lock() // lint:allow lockbalance — caller must call unlock()
}
