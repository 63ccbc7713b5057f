package storage

import (
	"bytes"
	"errors"
	"testing"

	"blinktree/internal/page"
	"blinktree/internal/wal"
)

func fill(size int, b byte) []byte {
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

// logFrames returns n real log frames, as a wal.Log writes them: the
// devices cut the runs they are given at the frames' length fields.
func logFrames(t *testing.T, n int) [][]byte {
	t.Helper()
	dev := wal.NewMemDevice()
	l, err := wal.NewLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(&wal.Record{Type: wal.TRecOp, Txn: uint64(i), Op: wal.OpInsert, Key: fill(1+i, 'k')}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	frames, err := dev.ReadDurable()
	if err != nil || len(frames) != n {
		t.Fatalf("%d frames, %v; want %d", len(frames), err, n)
	}
	return frames
}

func TestSimDiskSyncedWritesSurvive(t *testing.T) {
	d := NewSimDisk(128, SimConfig{Seed: 1})
	s := d.Store()
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(id, fill(128, 0xAA)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// An unsynced overwrite may or may not survive; the synced one must.
	if err := s.Write(id, fill(128, 0xBB)); err != nil {
		t.Fatal(err)
	}
	d.CrashNow()
	if _, err := s.Read(id); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("read while crashed: got %v, want ErrPowerCut", err)
	}
	d.Reboot()
	got, err := s.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAA && got[0] != 0xBB {
		t.Fatalf("post-crash page is neither image: %x", got[0])
	}
	for _, b := range got[1:] {
		if b != got[0] {
			t.Fatalf("untorn config produced a mixed page")
		}
	}
}

func TestSimDiskGhostWritesDropped(t *testing.T) {
	d := NewSimDisk(128, SimConfig{Seed: 7})
	s := d.Store()
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	// Allocation and write never covered by a Sync: the durable allocator
	// header never knew the page, so its bytes are invisible after reboot.
	if err := s.Write(id, fill(128, 0xCC)); err != nil {
		t.Fatal(err)
	}
	d.Reboot()
	if s.Allocated(id) {
		t.Fatalf("unsynced allocation survived reboot")
	}
	if _, err := s.Read(id); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("ghost page read: got %v, want ErrNotAllocated", err)
	}
}

func TestSimDiskCrashAtOpBoundary(t *testing.T) {
	// Counting run: how many ops does the sequence cost?
	count := NewSimDisk(128, SimConfig{Seed: 3})
	frame := logFrames(t, 1)[0]
	seq := func(d *SimDisk) error {
		s := d.Store()
		id, err := s.Allocate()
		if err != nil {
			return err
		}
		if err := s.Write(id, fill(128, 1)); err != nil {
			return err
		}
		if err := d.WAL().Append(frame); err != nil {
			return err
		}
		if err := d.WAL().Sync(); err != nil {
			return err
		}
		return s.Sync()
	}
	if err := seq(count); err != nil {
		t.Fatal(err)
	}
	total := count.Ops()
	if total != 5 {
		t.Fatalf("op count: got %d, want 5", total)
	}
	// Crash at every boundary: op k fails, ops beyond fail, earlier applied.
	for k := int64(1); k <= total; k++ {
		d := NewSimDisk(128, SimConfig{Seed: 3, CrashAt: k})
		err := seq(d)
		if !errors.Is(err, ErrPowerCut) {
			t.Fatalf("crash at %d: got %v, want ErrPowerCut", k, err)
		}
		if d.Ops() != k {
			t.Fatalf("crash at %d: counted %d ops", k, d.Ops())
		}
		d.Reboot()
		// The WAL sync is op 4: at k<=4 the frame is durable only if the
		// lottery kept it; at k=5 it must be durable.
		frames, err := d.WAL().ReadDurable()
		if err != nil {
			t.Fatal(err)
		}
		if k == 5 && len(frames) != 1 {
			t.Fatalf("crash at 5: synced frame lost")
		}
		if k <= 3 && len(frames) > 1 {
			t.Fatalf("crash at %d: phantom frames %d", k, len(frames))
		}
	}
}

// TestSimDiskRebootAndArm: a reboot can arm a second cut, counted from the
// reboot, that fires inside what runs next; state synced before either cut
// survives both, and a plain Reboot afterwards disarms again.
func TestSimDiskRebootAndArm(t *testing.T) {
	d := NewSimDisk(128, SimConfig{Seed: 5, CrashAt: 3})
	s := d.Store()
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(id, fill(128, 1)); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("op 3: got %v, want ErrPowerCut", err)
	}
	d.RebootAndArm(2)
	if err := s.Write(id, fill(128, 2)); err != nil {
		t.Fatalf("first op after the reboot: %v", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("second op after the reboot: got %v, want ErrPowerCut", err)
	}
	if d.Ops() != 5 {
		t.Fatalf("counted %d ops, want 5", d.Ops())
	}
	d.Reboot()
	if !s.Allocated(id) {
		t.Fatal("allocation synced before the first cut lost at the second")
	}
	for i := 0; i < 3; i++ {
		if err := s.Write(id, fill(128, 3)); err != nil {
			t.Fatalf("write after a plain reboot: %v", err)
		}
	}
}

func TestSimWALKeepsPrefix(t *testing.T) {
	appended := logFrames(t, 10)
	for seed := int64(0); seed < 20; seed++ {
		d := NewSimDisk(128, SimConfig{Seed: seed})
		w := d.WAL()
		for i, f := range appended {
			if err := w.Append(f); err != nil {
				t.Fatal(err)
			}
			if i == 4 {
				if err := w.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		d.Reboot()
		frames, err := w.ReadDurable()
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) < 5 {
			t.Fatalf("seed %d: synced prefix lost: %d frames", seed, len(frames))
		}
		for i, f := range frames {
			if !bytes.Equal(f, appended[i]) {
				t.Fatalf("seed %d: frame %d is not a prefix element", seed, i)
			}
		}
	}
}

// TestSimWALCutInsideARun: a run is one persistence operation holding many
// frames, and a crash after it keeps the frames one by one — a power cut a
// clean prefix that may end inside the run (under TornWALTail followed by a
// torn frame the reader stops at), a process death all of them.
func TestSimWALCutInsideARun(t *testing.T) {
	appended := logFrames(t, 10)
	synced, unsynced := bytes.Join(appended[:2], nil), bytes.Join(appended[2:], nil)
	for _, cfg := range []SimConfig{{}, {TornWALTail: true}, {ProcessDeath: true}} {
		var inside, torn int
		for seed := int64(0); seed < 64; seed++ {
			cfg.Seed = seed
			d := NewSimDisk(128, cfg)
			w := d.WAL()
			if err := w.Append(synced); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := w.Append(unsynced); err != nil {
				t.Fatal(err)
			}
			d.Reboot()
			frames, err := w.ReadDurable()
			if err != nil {
				t.Fatal(err)
			}
			if len(frames) < 2 || (cfg.ProcessDeath && len(frames) != 10) {
				t.Fatalf("%+v: %d frames survived", cfg, len(frames))
			}
			for i, f := range frames {
				if !bytes.Equal(f, appended[i]) {
					t.Fatalf("%+v: frame %d is not the %d-th frame appended", cfg, i, i)
				}
			}
			if len(frames) > 2 && len(frames) < 10 {
				inside++
			}
			if tt, _ := w.TailTorn(); tt {
				torn++
			}
		}
		if !cfg.ProcessDeath && inside == 0 || cfg.TornWALTail != (torn > 0) {
			t.Fatalf("%+v: 64 seeds cut inside the run %d times and left a torn frame %d times", cfg, inside, torn)
		}
	}
}

func TestSimDiskTornPageWrite(t *testing.T) {
	torn := 0
	for seed := int64(0); seed < 64 && torn == 0; seed++ {
		d := NewSimDisk(1024, SimConfig{Seed: seed, TornPageWrites: true, SectorSize: 256})
		s := d.Store()
		id, _ := s.Allocate()
		if err := s.Write(id, fill(1024, 0x11)); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(id, fill(1024, 0x22)); err != nil {
			t.Fatal(err)
		}
		d.Reboot()
		if d.TornPages() == 0 {
			continue
		}
		torn++
		got, err := s.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		// A torn page mixes whole sectors of the two images.
		for off := 0; off < 1024; off += 256 {
			b := got[off]
			if b != 0x11 && b != 0x22 {
				t.Fatalf("sector %d holds byte from neither image: %x", off/256, b)
			}
			for _, x := range got[off : off+256] {
				if x != b {
					t.Fatalf("tear not sector-aligned at %d", off)
				}
			}
		}
	}
	if torn == 0 {
		t.Fatalf("no seed in 64 produced a torn page")
	}
}

func TestSimWALTornTailReported(t *testing.T) {
	appended := logFrames(t, 6)
	found := false
	for seed := int64(0); seed < 64 && !found; seed++ {
		d := NewSimDisk(128, SimConfig{Seed: seed, TornWALTail: true})
		w := d.WAL()
		for _, f := range appended {
			if err := w.Append(f); err != nil {
				t.Fatal(err)
			}
		}
		d.Reboot()
		if torn, n := w.TailTorn(); torn {
			found = true
			frames, _ := w.ReadDurable()
			if len(frames) >= len(appended) {
				t.Fatalf("torn tail reported but all frames survived")
			}
			if n <= 0 || n >= int64(len(appended[len(frames)])) {
				t.Fatalf("torn tail bytes out of range: %d", n)
			}
		}
	}
	if !found {
		t.Fatalf("no seed in 64 produced a torn WAL tail")
	}
}

// TestSimWALMasterWriteIsACrashPoint: writing the master record is one
// counted persistence operation; a master written before the cut survives
// it, and a cut on the write itself leaves the previous master or — under
// TornWALTail, for some seeds — a torn one that a restart read refuses.
func TestSimWALMasterWriteIsACrashPoint(t *testing.T) {
	// Two checkpoints through a Log: append, sync, master write, each.
	checkpoints := func(d *SimDisk) error {
		l, err := wal.NewLog(d.WAL())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2 && err == nil; i++ {
			err = l.Checkpoint(func() *wal.Record { return &wal.Record{Type: wal.TCheckpoint, Root: 1} })
		}
		return err
	}
	d := NewSimDisk(128, SimConfig{Seed: 1})
	if err := checkpoints(d); err != nil {
		t.Fatal(err)
	}
	if d.Ops() != 6 {
		t.Fatalf("two checkpoints counted %d persistence operations, want 6: the master write is one", d.Ops())
	}
	d.Reboot()
	if r, err := d.WAL().ReadRestart(); err != nil || r.Why != "" || r.Master.LSN != 2 || len(r.Frames) != 1 {
		t.Fatalf("master written before the cut: %+v, %v", r, err)
	}

	old, torn := 0, 0
	for seed := int64(0); seed < 64; seed++ {
		d := NewSimDisk(128, SimConfig{Seed: seed, TornWALTail: true, CrashAt: 6})
		if err := checkpoints(d); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("seed %d: second master write at the cut: %v", seed, err)
		}
		if err := d.WAL().WriteMaster(wal.Master{}); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("seed %d: master write after the cut: %v", seed, err)
		}
		d.Reboot()
		r, err := d.WAL().ReadRestart()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case r.Why == "" && r.Master.LSN == 1 && len(r.Frames) == 2:
			old++
		case r.Why == wal.WhyBadMaster && r.Start == 0 && len(r.Frames) == 2:
			torn++
		default:
			t.Fatalf("seed %d: after a cut on the master write: %+v", seed, r)
		}
	}
	if old == 0 || torn == 0 {
		t.Fatalf("64 seeds left the old master %d times and a torn one %d times; want both outcomes", old, torn)
	}
}

func TestSimStoreSharesInjectorSurface(t *testing.T) {
	d := NewSimDisk(128, SimConfig{Seed: 1})
	s := d.Store()
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	s.SetFailWrites(true)
	if err := s.Write(id, fill(128, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected write: got %v, want ErrInjected", err)
	}
	s.SetFailWrites(false)
	s.FailNextAllocs(1)
	if _, err := s.Allocate(); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected alloc: got %v, want ErrInjected", err)
	}
	if _, err := s.Allocate(); err != nil {
		t.Fatalf("alloc after injection consumed: %v", err)
	}
	if err := s.Write(id, fill(128, 1)); err != nil {
		t.Fatalf("write after injection cleared: %v", err)
	}
}

func TestSimDiskAllocatorRecyclesLIFO(t *testing.T) {
	d := NewSimDisk(128, SimConfig{Seed: 1})
	s := d.Store()
	a, _ := s.Allocate()
	b, _ := s.Allocate()
	if err := s.Deallocate(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Deallocate(b); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Allocate()
	if c != b {
		t.Fatalf("LIFO recycle: got %d, want %d", c, b)
	}
	if err := s.EnsureAllocated(page.PageID(9)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().HighestPage; got != 9 {
		t.Fatalf("frontier after EnsureAllocated(9): %d", got)
	}
}
