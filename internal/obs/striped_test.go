package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestStripedSumsExactly(t *testing.T) {
	const goroutines, adds = 16, 5000
	var c Striped
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				c.Add(StackHint(), 1)
				c.Add(uintptr(i), 2) // every stripe, from every goroutine
			}
		}()
	}
	wg.Wait()
	if got, want := c.Load(), uint64(goroutines*adds*3); got != want {
		t.Fatalf("Load = %d, want %d", got, want)
	}
}

func TestStripeIsOneCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(stripe{}); s != 64 {
		t.Fatalf("sizeof(stripe) = %d, want 64", s)
	}
	if s := unsafe.Sizeof(Striped{}); s != 64*Stripes {
		t.Fatalf("sizeof(Striped) = %d, want %d", s, 64*Stripes)
	}
}

func TestStripeOfInRangeAndSpread(t *testing.T) {
	seen := map[int]bool{}
	// Goroutine stacks and heap objects differ by multiples of small powers
	// of two; such hints must not pile onto a few stripes.
	for _, stride := range []uintptr{64, 2048, 8192} {
		for i := uintptr(0); i < 4*Stripes; i++ {
			s := StripeOf(0xc000100000 + i*stride)
			if s < 0 || s >= Stripes {
				t.Fatalf("StripeOf out of range: %d", s)
			}
			seen[s] = true
		}
	}
	if len(seen) < Stripes*3/4 {
		t.Fatalf("hints landed on only %d of %d stripes", len(seen), Stripes)
	}
}

func TestStackHintDiffersBetweenGoroutines(t *testing.T) {
	here := StackHint()
	there := make(chan uintptr)
	go func() { there <- StackHint() }()
	if h := <-there; h == here {
		t.Fatalf("two goroutines share stack hint %#x", h)
	}
}

// TestGateExcludesEveryStripe: with a reader cycling through each stripe,
// Lock must never find one inside.
func TestGateExcludesEveryStripe(t *testing.T) {
	var g Gate
	var inside atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := range g {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for !stop.Load() {
				g[i].RLock()
				inside.Add(1)
				runtime.Gosched()
				inside.Add(-1)
				g.Leave(i)
			}
		}(i)
	}
	for round := 0; round < 200; round++ {
		g.Lock()
		if n := inside.Load(); n != 0 {
			t.Errorf("round %d: %d readers inside a locked gate", round, n)
		}
		g.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	// Enter picks a stripe by the caller's stack and Leave gives it back.
	i := g.Enter()
	if g[i].TryLock() {
		t.Fatalf("stripe %d lockable with a reader inside", i)
	}
	g.Leave(i)
	if unsafe.Sizeof(g[0]) != 64 {
		t.Fatalf("gate stripe is %d bytes, want 64", unsafe.Sizeof(g[0]))
	}
}
