package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/page"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// Span names. Spans are recorded from the benchmark's own files, around the
// calls into each layer; spans inside core and server are a later issue.
type spanName uint8

const (
	spOp spanName = iota
	spRespEncode
	spWire
	spRespDecode
	spTreeCall
	spStorageRead
	spStorageWrite
	spStorageSync
	spWalAppend
	spWalSync
	spBackground
	spanNames
)

var spanNameStr = [spanNames]string{
	"op", "resp.encode", "wire", "resp.decode", "tree.call",
	"storage.read", "storage.write", "storage.sync", "wal.append", "wal.sync",
	"background",
}

// span is one timed interval. Times are nanoseconds since the tracer
// started; parent is a span id, -1 for a root; req numbers the request the
// span belongs to (0 for background work).
type span struct {
	name   spanName
	parent int32
	req    int32
	start  int64
	end    int64
}

// maxSpans bounds a traced run's memory and the size of the span file; a
// traced phase ends when its time is up or its share of the buffer is used.
const maxSpans = 1 << 18

// spanSlack is the room a traced phase leaves in the buffer when it stops,
// for the spans of the request in flight and of background device work.
const spanSlack = 256

// tracer keeps spans in memory until the run ends. A span's id is its index.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	// cur is the span device calls are parented to: the tree.call of the
	// single in-flight request, or the background span between requests.
	cur atomic.Int32
	// paused drops new spans: the traced stack warms its pool up unrecorded.
	paused atomic.Bool
}

// backgroundID is the root span that adopts device work outside any request.
const backgroundID = 0

func newTracer() *tracer {
	tr := &tracer{t0: time.Now(), spans: make([]span, 1, maxSpans)}
	tr.spans[backgroundID] = span{name: spBackground, parent: -1}
	tr.cur.Store(backgroundID)
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// begin opens a span and returns its id, or -1 when the buffer is full. A nil
// tracer records nothing, so untraced runs share the traced code path.
func (tr *tracer) begin(name spanName, parent, req int32) int32 {
	if tr == nil || tr.paused.Load() {
		return -1
	}
	start := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) == cap(tr.spans) {
		return -1
	}
	tr.spans = append(tr.spans, span{name: name, parent: parent, req: req, start: start})
	return int32(len(tr.spans) - 1)
}

func (tr *tracer) end(id int32) {
	if id < 0 {
		return
	}
	end := tr.now()
	tr.mu.Lock()
	tr.spans[id].end = end
	tr.mu.Unlock()
}

// count returns the number of spans recorded so far.
func (tr *tracer) count() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.spans)
}

// parentDevices makes id the parent of device calls (a negative id, from a
// full buffer, leaves them with the background span).
func (tr *tracer) parentDevices(id int32) {
	if tr != nil && id >= 0 {
		tr.cur.Store(id)
	}
}

// device times one device call as a child of the in-flight tree.call.
func (tr *tracer) device(name spanName, fn func() error) error {
	id := tr.begin(name, tr.cur.Load(), 0)
	err := fn()
	tr.end(id)
	return err
}

// finish closes the background span and returns the recorded spans.
func (tr *tracer) finish() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[backgroundID].end = tr.now()
	return tr.spans
}

// tracedStore is the storage.Store decorator handed to core.New in a traced
// run: page reads, writes and syncs become spans, the rest passes through.
type tracedStore struct {
	storage.Store
	tr *tracer
}

func (s *tracedStore) Read(id page.PageID) (buf []byte, err error) {
	err = s.tr.device(spStorageRead, func() error {
		buf, err = s.Store.Read(id)
		return err
	})
	return buf, err
}

func (s *tracedStore) Write(id page.PageID, buf []byte) error {
	return s.tr.device(spStorageWrite, func() error { return s.Store.Write(id, buf) })
}

func (s *tracedStore) Sync() error {
	return s.tr.device(spStorageSync, s.Store.Sync)
}

// AllocateBatch keeps the wrapped store's batch allocator reachable.
func (s *tracedStore) AllocateBatch(n int) ([]page.PageID, error) {
	return storage.AllocateBatch(s.Store, n)
}

// tracedDevice is the wal.Device decorator of a traced run.
type tracedDevice struct {
	wal.Device
	tr *tracer
}

func (d *tracedDevice) Append(frame []byte) error {
	return d.tr.device(spWalAppend, func() error { return d.Device.Append(frame) })
}

func (d *tracedDevice) Sync() error {
	return d.tr.device(spWalSync, d.Device.Sync)
}

// TailTorn keeps the wrapped device's torn-tail report reachable.
func (d *tracedDevice) TailTorn() (bool, int64) {
	if tr, ok := d.Device.(wal.TailReporter); ok {
		return tr.TailTorn()
	}
	return false, 0
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count once,
// and a child running past its parent counts only up to the parent's end).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < covered {
				lo = covered
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// spanSummary aggregates one span name over a traced run.
type spanSummary struct {
	count  int
	total  int64 // sum of durations, ns
	self   int64 // sum of self times, ns
	median float64
}

// summarize aggregates spans[from:to]; self is selfTimes of all the spans.
func summarize(spans []span, self []int64, from, to int) [spanNames]spanSummary {
	var out [spanNames]spanSummary
	var durs [spanNames][]float64
	for i := from; i < to; i++ {
		s := spans[i]
		if s.end < s.start {
			continue // still open when the run ended
		}
		sum := &out[s.name]
		sum.count++
		sum.total += s.end - s.start
		sum.self += self[i]
		durs[s.name] = append(durs[s.name], float64(s.end-s.start))
	}
	for n := range out {
		out[n].median = median(durs[n])
	}
	return out
}

func (s spanSummary) meanSelf() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.self) / float64(s.count)
}

func (s spanSummary) mean() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count)
}

// writeSpans writes the spans as a JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	w.WriteString("[\n")
	for i, s := range spans {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"req":`...)
		b = strconv.AppendInt(b, int64(s.req), 10)
		b = append(b, `,"name":"`...)
		b = append(b, spanNameStr[s.name]...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, '}')
		if i < len(spans)-1 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		w.Write(b)
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
