package core

import (
	"errors"
	"sync"
	"testing"

	"blinktree/internal/obs"
)

// TestSnapshotConcurrent hammers every read-side stats surface while writers
// and the maintenance scheduler run; under -race this proves Stats, Snapshot,
// TraceEvents and LatchStats are safe against concurrent mutation.
func TestSnapshotConcurrent(t *testing.T) {
	if !obs.Compiled {
		t.Skip("observability compiled out (obsoff)")
	}
	tr := newTestTree(t, Options{
		PageSize: 512, Workers: 2,
		Observability: &obs.Config{Metrics: true, Trace: true},
	})
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := tr.Snapshot()
				if m.Obs == nil {
					t.Error("Snapshot.Obs nil with metrics enabled")
					return
				}
				if m.Obs.TraceDropped > m.Obs.TraceSeq {
					t.Errorf("dropped %d > emitted %d", m.Obs.TraceDropped, m.Obs.TraceSeq)
					return
				}
				_ = tr.Stats()
				_ = tr.LatchStats()
				_ = tr.TraceEvents()
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 300; i++ {
				k := key(g*300 + i)
				if err := tr.Put(k, valb(i)); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					tr.Delete(k)
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	tr.DrainTodo()

	m := tr.Snapshot()
	if m.Stats.Inserts == 0 || m.Latch.AcquireShared == 0 {
		t.Fatalf("implausible final snapshot: %+v", m.Stats)
	}
	if m.Obs.Ops[obs.OpInsert].Count == 0 {
		t.Fatal("insert histogram empty after workload")
	}
	mustVerify(t, tr)
}

// TestSnapshotDisabled checks the no-op fast path: a tree without
// observability reports a nil histogram section and no trace events.
func TestSnapshotDisabled(t *testing.T) {
	tr := newTestTree(t, Options{})
	if err := tr.Put(key(1), valb(1)); err != nil {
		t.Fatal(err)
	}
	m := tr.Snapshot()
	if m.Obs != nil && obs.Compiled && !obs.ForceTrace {
		t.Fatal("Obs section present without Options.Observability")
	}
	if evs := tr.TraceEvents(); len(evs) != 0 && !obs.ForceTrace {
		t.Fatalf("trace events without tracing: %d", len(evs))
	}
	if m.Stats.Inserts != 1 {
		t.Fatalf("Inserts = %d, want 1", m.Stats.Inserts)
	}
}

// BenchmarkObsOverheadMixed measures the instrumentation cost of a mixed
// point workload at three observability levels. CI compares the disabled
// case against an -tags obsoff build (instrumentation compiled out) and
// fails when the residual overhead exceeds its gate.
func BenchmarkObsOverheadMixed(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  *obs.Config
	}{
		{"disabled", nil},
		{"metrics", &obs.Config{Metrics: true}},
		{"full", &obs.Config{Metrics: true, Trace: true}},
		{"sampled", &obs.Config{Metrics: true, Trace: true, Spans: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr := newTestTree(b, Options{PageSize: 4096, Workers: 2, Observability: bc.cfg})
			const space = 20_000
			for i := 0; i < space/2; i++ {
				if err := tr.Put(key(i*2), valb(i)); err != nil {
					b.Fatal(err)
				}
			}
			tr.DrainTodo()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				k := key(n % space)
				var err error
				switch n % 4 {
				case 0, 1:
					_, err = tr.Get(k)
				case 2:
					err = tr.Put(k, valb(n))
				case 3:
					err = tr.Delete(k)
				}
				if err != nil && !errors.Is(err, ErrKeyNotFound) {
					b.Fatal(err)
				}
			}
		})
	}
}
