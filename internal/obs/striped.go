package obs

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Stripes is the number of cache lines a Striped or a Gate spreads over.
const Stripes = 64

type stripe struct {
	n atomic.Uint64
	_ [56]byte
}

// Striped is an event counter concurrent writers do not contend on: Add lands
// on one of Stripes cache-line-padded words chosen by a caller-supplied hint
// (two goroutines' stacks or two latches almost always differ), Load sums
// them. The zero value is ready; do not copy a Striped after first use.
type Striped struct {
	s [Stripes]stripe
}

// StripeOf maps a hint (a word that differs between concurrent writers) to a stripe.
func StripeOf(hint uintptr) int {
	return int(uint64(hint) * 0x9E3779B97F4A7C15 >> 58)
}

// StackHint returns an address on the calling goroutine's stack: stable on
// one goroutine running one code path, different between goroutines.
func StackHint() uintptr {
	var x byte
	return uintptr(unsafe.Pointer(&x))
}

// Add adds n on the stripe hint selects.
func (c *Striped) Add(hint uintptr, n uint64) { c.s[StripeOf(hint)].n.Add(n) }

// Load sums the stripes (concurrent Adds may or may not be included).
func (c *Striped) Load() uint64 {
	var sum uint64
	for i := range c.s {
		sum += c.s[i].n.Load()
	}
	return sum
}

// Gate is a reader-writer gate striped like the counters: Enter read-locks
// the one stripe the caller's stack selects and returns it for Leave, so
// concurrent readers write different cache lines; Lock takes every stripe.
type Gate [Stripes]struct {
	sync.RWMutex
	_ [64 - unsafe.Sizeof(sync.RWMutex{})]byte
}

// Enter admits a reader and returns its stripe, for Leave.
func (g *Gate) Enter() int {
	i := StripeOf(StackHint())
	g[i].RLock()
	return i
}

// Leave releases the stripe Enter returned.
func (g *Gate) Leave(i int) { g[i].RUnlock() }

// Lock waits out and then excludes all readers until Unlock.
func (g *Gate) Lock() {
	for i := range g {
		g[i].Lock()
	}
}

// Unlock readmits readers.
func (g *Gate) Unlock() {
	for i := range g {
		g[i].Unlock()
	}
}
