package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"blinktree/internal/page"
	"blinktree/internal/wal"
)

// ErrPowerCut is returned by every operation on a SimDisk facade once the
// simulated power cut has fired, and by the operation the cut interrupts.
// The interrupted operation has no durable effect.
var ErrPowerCut = errors.New("storage: simulated power cut")

// SimConfig configures a SimDisk.
type SimConfig struct {
	// Seed drives every random decision (write survival, tearing), making
	// each crash run reproducible.
	Seed int64

	// CrashAt is the 1-based persistence-operation index at which the power
	// cut fires: operations 1..CrashAt-1 take effect normally, operation
	// CrashAt and everything after it fail with ErrPowerCut. Counted
	// operations are page-store Allocate/Deallocate/Write/Sync and WAL
	// Append/Sync/WriteMaster. Zero never cuts power (use CrashNow, or a
	// counting run).
	CrashAt int64

	// SectorSize is the granularity of torn page writes (default 512): at a
	// power cut, a page write caught in flight may land as a per-sector mix
	// of the old and new images.
	SectorSize int

	// TornPageWrites enables torn (partial, sector-granular) page writes at
	// the power cut. The resulting page fails its checksum; recovery must
	// detect and repair it from the log.
	TornPageWrites bool

	// TornWALTail enables a torn final WAL frame at the power cut: a prefix
	// of the first lost frame's bytes survives as trailing garbage that a
	// log reader must recognize as the end of the log. It also lets a cut
	// that interrupts a master-record write leave that record torn.
	TornWALTail bool

	// ProcessDeath makes the cut a death of the process, not of the
	// machine: every write issued before it survives, synced or not (the
	// operating system holds it), and nothing tears. What is lost is what
	// the process still held: the log's unwritten tail, dirty pages, and
	// allocator changes since the last store Sync (a page file's header is
	// written at Sync).
	ProcessDeath bool
}

// SimDisk is a deterministic simulation of a crash-prone storage device
// beneath a durable tree: one simulated medium holding both the page file
// (SimStore, a storage.Store) and the write-ahead log (SimWAL, a
// wal.Device), sharing a persistence-operation counter so a power cut can
// be scheduled at any exact operation boundary.
//
// The crash model is the adversarial union of what real hardware does:
//
//   - Synced state is durable: page writes covered by a store Sync and WAL
//     frames covered by a WAL Sync always survive.
//   - Unsynced WAL frames survive as a random prefix of the append order
//     (a log file's frame chain breaks at the first hole), optionally
//     followed by a torn half-written frame.
//   - Unsynced page writes survive per page as a random prefix of that
//     page's write order — writes to different pages reach the platter in
//     any order — optionally with the first lost write torn mid-sector-run.
//   - Allocator metadata (the page file header) reverts to the last store
//     Sync; bytes written to pages the durable header never knew are lost.
//
// With SimConfig.ProcessDeath the cut models a process crash on a machine
// that stays up instead: every issued write survives, none tears.
//
// After CrashNow or the scheduled cut, every facade operation returns
// ErrPowerCut until Reboot resolves the surviving state; the facades then
// serve the post-crash disk with fault injection disarmed, so the same
// SimStore/SimWAL pair can be handed to a recovering tree.
type SimDisk struct {
	mu  sync.Mutex
	cfg SimConfig
	rng *rand.Rand

	ops     int64
	crashed bool
	armed   bool

	store *SimStore
	wal   *SimWAL

	tornPages     int
	droppedFrames int
	tornTail      bool
	tornTailBytes int64
}

// NewSimDisk creates a simulated disk with an empty page file and WAL.
func NewSimDisk(pageSize int, cfg SimConfig) *SimDisk {
	if cfg.SectorSize <= 0 {
		cfg.SectorSize = 512
	}
	d := &SimDisk{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		armed: cfg.CrashAt > 0,
	}
	d.store = &SimStore{
		d:        d,
		pageSize: pageSize,
		cur:      newDiskImage(),
		dur:      newDiskImage(),
		pending:  make(map[page.PageID][][]byte),
	}
	d.wal = &SimWAL{d: d}
	return d
}

// Store returns the page-store facade (a storage.Store).
func (d *SimDisk) Store() *SimStore { return d.store }

// WAL returns the log-device facade (a wal.Device).
func (d *SimDisk) WAL() *SimWAL { return d.wal }

// Ops returns the number of persistence operations counted so far. A
// counting run (CrashAt zero) uses it to enumerate crash points.
func (d *SimDisk) Ops() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ops
}

// Crashed reports whether the power cut has fired and Reboot has not yet
// run.
func (d *SimDisk) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// CrashNow cuts power immediately, regardless of CrashAt.
func (d *SimDisk) CrashNow() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashLocked()
}

// TornPages returns how many page images were left torn (checksum-invalid)
// by the crash lottery.
func (d *SimDisk) TornPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tornPages
}

// DroppedFrames returns how many unsynced WAL frames the crash discarded.
func (d *SimDisk) DroppedFrames() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.droppedFrames
}

// Reboot resolves the durable post-crash state and brings the facades back
// up over it with fault injection disarmed: ErrPowerCut stops, CrashAt no
// longer fires, and a recovering tree can be opened over Store() and WAL().
// If power was never cut, Reboot cuts it first (a reboot without a clean
// shutdown is a power cut).
func (d *SimDisk) Reboot() { d.RebootAndArm(0) }

// RebootAndArm is Reboot followed by a new cut k persistence operations
// later (none if k <= 0), which lands inside whatever runs over the rebooted
// disk: the recovery first of all. The new cut draws on the same fault
// modes and random stream as the first.
func (d *SimDisk) RebootAndArm(k int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashLocked()
	d.crashed = false
	d.armed = k > 0
	d.cfg.CrashAt = d.ops + k
	d.store.cur = d.store.dur.clone()
}

// opLocked counts one persistence operation, firing the scheduled power cut
// when the counter reaches CrashAt. The caller holds d.mu; on error the
// operation must have no effect.
func (d *SimDisk) opLocked() error {
	if d.crashed {
		return ErrPowerCut
	}
	d.ops++
	if d.armed && d.ops >= d.cfg.CrashAt {
		d.crashLocked()
		return ErrPowerCut
	}
	return nil
}

// crashLocked runs the crash lottery, resolving which unsynced state
// survives on the durable medium. Idempotent; caller holds d.mu.
func (d *SimDisk) crashLocked() {
	if d.crashed {
		return
	}
	d.crashed = true

	// Page file: each page's unsynced writes survive as an independent
	// random prefix; optionally the first lost write lands torn. Bytes
	// written to pages the durable allocator never recorded are ghost
	// writes: invisible after reboot (the header says the page is free, and
	// reallocation zero-fills it), so they are simply dropped.
	s := d.store
	ids := make([]page.PageID, 0, len(s.pending))
	for id := range s.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		q := s.pending[id]
		base, ok := s.dur.pages[id]
		if !ok {
			continue
		}
		keep := d.survivors(len(q))
		img := base
		if keep > 0 {
			img = q[keep-1]
		}
		if d.cfg.TornPageWrites && keep < len(q) && d.rng.Intn(2) == 0 {
			img = tornMix(d.rng, d.cfg.SectorSize, img, q[keep])
			d.tornPages++
		}
		s.dur.pages[id] = append([]byte(nil), img...)
	}
	s.pending = make(map[page.PageID][][]byte)

	// WAL: a random prefix of the unsynced frames survives; optionally the
	// next frame survives torn — trailing garbage a reader must stop at,
	// recorded here but never returned by ReadDurable (mirroring how
	// FileDevice stops at the first bad frame).
	w := d.wal
	keep := d.survivors(len(w.buffered))
	w.durable = append(w.durable, w.buffered[:keep]...)
	if d.cfg.TornWALTail && keep < len(w.buffered) && d.rng.Intn(2) == 0 {
		if n := len(w.buffered[keep]); n > 1 {
			d.tornTail = true
			d.tornTailBytes = int64(1 + d.rng.Intn(n-1))
		}
	}
	d.droppedFrames += len(w.buffered) - keep
	w.buffered = nil
}

// survivors draws how many of n unsynced writes, in issue order, outlive
// the crash: a random prefix, or all of them when only the process died.
func (d *SimDisk) survivors(n int) int {
	if d.cfg.ProcessDeath {
		return n
	}
	return d.rng.Intn(n + 1)
}

// tornMix builds a torn page image: a per-sector mix of the old and new
// images, as left by a multi-sector write interrupted mid-flight.
func tornMix(rng *rand.Rand, sector int, old, new []byte) []byte {
	out := append([]byte(nil), old...)
	for off := 0; off < len(out); off += sector {
		end := off + sector
		if end > len(out) {
			end = len(out)
		}
		if rng.Intn(2) == 0 {
			copy(out[off:end], new[off:end])
		}
	}
	return out
}

// diskImage is one complete durable state of the simulated page file: page
// contents plus the allocator header (free list and frontier) a real
// pages.db persists on Sync.
type diskImage struct {
	pages map[page.PageID][]byte
	free  []page.PageID
	next  page.PageID
}

func newDiskImage() *diskImage {
	return &diskImage{pages: make(map[page.PageID][]byte), next: 1}
}

func (im *diskImage) clone() *diskImage {
	out := &diskImage{
		pages: make(map[page.PageID][]byte, len(im.pages)),
		free:  append([]page.PageID(nil), im.free...),
		next:  im.next,
	}
	for id, buf := range im.pages {
		out.pages[id] = append([]byte(nil), buf...)
	}
	return out
}

// SimStore is the page-store facade of a SimDisk: a storage.Store whose
// writes and allocator changes are durable only once covered by Sync, and
// whose unsynced state is subject to the SimDisk crash lottery. The
// embedded Injector adds toggle-style error injection on top (shared with
// FaultyStore).
//
// Unlike FileStore, Close is a no-op: the simulated medium outlives any one
// tree so the harness can reopen a recovering tree over the same disk.
type SimStore struct {
	Injector

	d        *SimDisk
	pageSize int

	// cur is the volatile view (what in-flight software observes); dur is
	// the durable medium as of the last Sync, updated by the crash lottery.
	cur *diskImage
	dur *diskImage

	// pending journals unsynced content writes per page, in write order,
	// for the crash lottery.
	pending map[page.PageID][][]byte

	reads, writes, allocs, deallocs uint64
}

// PageSize implements Store.
func (s *SimStore) PageSize() int { return s.pageSize }

// Allocate implements Store. The allocation is durable only after Sync.
func (s *SimStore) Allocate() (page.PageID, error) {
	if err := s.allocErr(); err != nil {
		return page.InvalidPage, err
	}
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	if err := s.d.opLocked(); err != nil {
		return page.InvalidPage, err
	}
	var id page.PageID
	if n := len(s.cur.free); n > 0 {
		id = s.cur.free[n-1]
		s.cur.free = s.cur.free[:n-1]
	} else {
		id = s.cur.next
		s.cur.next++
	}
	s.cur.pages[id] = make([]byte, s.pageSize)
	s.allocs++
	return id, nil
}

// EnsureAllocated implements Store: it makes id allocated (zero-filled when
// fresh, like FileStore) and is idempotent. Not counted as a persistence
// operation — recovery replays allocations through it after Reboot.
func (s *SimStore) EnsureAllocated(id page.PageID) error {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	if s.d.crashed {
		return ErrPowerCut
	}
	if _, ok := s.cur.pages[id]; ok {
		return nil
	}
	for i, f := range s.cur.free {
		if f == id {
			s.cur.free = append(s.cur.free[:i], s.cur.free[i+1:]...)
			break
		}
	}
	for s.cur.next <= id {
		if s.cur.next != id {
			s.cur.free = append(s.cur.free, s.cur.next)
		}
		s.cur.next++
	}
	s.cur.pages[id] = make([]byte, s.pageSize)
	s.allocs++
	return nil
}

// Deallocate implements Store. The deallocation is durable only after Sync.
func (s *SimStore) Deallocate(id page.PageID) error {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	if err := s.d.opLocked(); err != nil {
		return err
	}
	if _, ok := s.cur.pages[id]; !ok {
		return fmt.Errorf("%w: deallocate %d", ErrNotAllocated, id)
	}
	delete(s.cur.pages, id)
	s.cur.free = append(s.cur.free, id)
	s.deallocs++
	return nil
}

// Read implements Store. Reads observe the volatile view (the OS page
// cache serves unsynced writes back to the writer).
func (s *SimStore) Read(id page.PageID) ([]byte, error) {
	buf := make([]byte, s.pageSize)
	if err := s.ReadInto(id, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto implements PageReader, observing the volatile view like Read.
func (s *SimStore) ReadInto(id page.PageID, buf []byte) error {
	if err := s.readErr(); err != nil {
		return err
	}
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	if s.d.crashed {
		return ErrPowerCut
	}
	if len(buf) != s.pageSize {
		return fmt.Errorf("%w: got %d, want %d", ErrBadSize, len(buf), s.pageSize)
	}
	src, ok := s.cur.pages[id]
	if !ok {
		return fmt.Errorf("%w: read %d", ErrNotAllocated, id)
	}
	s.reads++
	copy(buf, src)
	return nil
}

// Write implements Store. The write is durable only once covered by Sync;
// until then it may be lost — or torn — at a power cut.
func (s *SimStore) Write(id page.PageID, buf []byte) error {
	if err := s.writeErr(); err != nil {
		return err
	}
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	if err := s.d.opLocked(); err != nil {
		return err
	}
	if len(buf) != s.pageSize {
		return fmt.Errorf("%w: got %d, want %d", ErrBadSize, len(buf), s.pageSize)
	}
	if _, ok := s.cur.pages[id]; !ok {
		return fmt.Errorf("%w: write %d", ErrNotAllocated, id)
	}
	cp := make([]byte, len(buf))
	copy(cp, buf)
	s.cur.pages[id] = cp
	s.pending[id] = append(s.pending[id], cp)
	s.writes++
	return nil
}

// Allocated implements Store (volatile view).
func (s *SimStore) Allocated(id page.PageID) bool {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	_, ok := s.cur.pages[id]
	return ok
}

// Stats implements Store (volatile view).
func (s *SimStore) Stats() Stats {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	return Stats{
		Reads: s.reads, Writes: s.writes,
		Allocs: s.allocs, Deallocs: s.deallocs,
		LivePages: len(s.cur.pages), HighestPage: s.cur.next - 1,
	}
}

// Sync implements Store: every prior write and allocator change becomes
// durable (immune to the crash lottery).
func (s *SimStore) Sync() error {
	if err := s.syncErr(); err != nil {
		return err
	}
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	if err := s.d.opLocked(); err != nil {
		return err
	}
	s.dur = s.cur.clone()
	s.pending = make(map[page.PageID][][]byte)
	return nil
}

// Close implements Store as a no-op: the simulated medium persists across
// tree lifetimes so crash harnesses can reopen over it.
func (s *SimStore) Close() error { return nil }

// SimWAL is the log-device facade of a SimDisk. It implements wal.Device:
// appended frames are durable only once covered by Sync; at a power cut a
// random prefix of the unsynced frames survives (a log file's frame chain
// breaks at its first hole), optionally followed by a torn frame that
// ReadDurable treats as the end of the log.
type SimWAL struct {
	d        *SimDisk
	durable  [][]byte
	buffered [][]byte
	master   []byte
	syncs    uint64
}

// Append implements wal.Device: one persistence operation for the whole
// run, whose frames are durable only after Sync. The crash lottery treats
// them one by one, so a cut can keep a prefix that ends mid-run.
func (w *SimWAL) Append(run []byte) error {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	if err := w.d.opLocked(); err != nil {
		return err
	}
	w.buffered = append(w.buffered, wal.SplitRun(append([]byte(nil), run...))...)
	return nil
}

// Sync implements wal.Device: all appended frames become durable.
func (w *SimWAL) Sync() error {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	if err := w.d.opLocked(); err != nil {
		return err
	}
	w.durable = append(w.durable, w.buffered...)
	w.buffered = nil
	w.syncs++
	return nil
}

// ReadDurable implements wal.Device: every durable frame in append order —
// a clean prefix of the appended frames. A torn tail left by the crash is
// not returned (the reader stops at it); TailTorn reports it.
func (w *SimWAL) ReadDurable() ([][]byte, error) {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	if w.d.crashed {
		return nil, ErrPowerCut
	}
	out := make([][]byte, len(w.durable))
	copy(out, w.durable)
	return out, nil
}

// ReadRestart implements wal.Device over the durable frames and master.
func (w *SimWAL) ReadRestart() (wal.Restart, error) {
	frames, err := w.ReadDurable()
	return wal.RestartOf(frames, w.master), err
}

// WriteMaster implements wal.Device: one persistence operation, durable
// when it returns. A power cut that interrupts it leaves the old master
// or, under TornWALTail, a torn one.
func (w *SimWAL) WriteMaster(m wal.Master) error {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	inFlight := !w.d.crashed
	err := w.d.opLocked()
	if err == nil {
		w.master = m.Encode()
	} else if inFlight && w.d.cfg.TornWALTail && !w.d.cfg.ProcessDeath && w.d.rng.Intn(2) == 0 {
		w.master = m.Encode()[:1+w.d.rng.Intn(23)]
	}
	return err
}

// TailTorn reports whether the last crash left a torn frame past the valid
// log tail, and how many garbage bytes it holds. It has the same shape as
// (*wal.FileDevice).TailTorn so wal.Log surfaces either transparently.
func (w *SimWAL) TailTorn() (bool, int64) {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	return w.d.tornTail, w.d.tornTailBytes
}

// Syncs returns how many times Sync has completed.
func (w *SimWAL) Syncs() uint64 {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	return w.syncs
}

// Close implements wal.Device as a no-op (see SimStore.Close).
func (w *SimWAL) Close() error { return nil }
