package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Device is the append-only byte store beneath the Log. The Log buffers its
// records and hands the device one run of frames per force (or full tail),
// not one Append per record.
//
// Durability contract: frames covered by a Sync are durable; frames
// appended but not yet synced may be lost at a crash. What survives a
// crash must be a clean prefix of the appended frames — a device may keep
// some unsynced tail frames (an OS may have written them out on its own),
// but never a frame whose predecessor was lost, because log analysis
// depends on LSN order and on a commit record implying its transaction's
// earlier records. FileDevice gets the prefix property for free: its frame
// chain breaks at the first torn or corrupt frame.
type Device interface {
	// Append writes run, whole frames, after everything appended before;
	// they are durable only after Sync. It must not keep run (the Log reuses
	// it). After an error, any part of run may have been written.
	Append(run []byte) error
	// Sync makes all appended frames durable.
	Sync() error
	// ReadDurable returns every durable frame in append order: a clean
	// prefix of the appended frames (see the Device durability contract).
	// The full-log read, for the dump and audit tools: recovery never
	// needs it (ReadRestart).
	ReadDurable() ([][]byte, error)
	// ReadRestart is the one read an open makes: the durable frames from
	// the master record's checkpoint on, or every frame and why.
	ReadRestart() (Restart, error)
	// WriteMaster durably replaces the master record; the frame m names
	// is durable already.
	WriteMaster(m Master) error
	// Close releases resources. Buffered frames are not implicitly synced.
	Close() error
}

// TailReporter is the optional Device extension for torn-tail observation:
// devices that can detect garbage past the last valid frame (a frame torn
// by a power cut) report it here, and recovery surfaces it in the tree's
// RecoveryStats. FileDevice and the crash-simulation device implement it.
type TailReporter interface {
	// TailTorn reports whether trailing bytes past the last valid frame
	// were found, and how many.
	TailTorn() (torn bool, trailingBytes int64)
}

// Restart is a Device's account of the read an open makes: the durable
// frames from position Start to End, where the next append lands. Why is
// empty when they start at the checkpoint Master names; otherwise the whole
// log (Start 0) was read, for the reason it gives.
type Restart struct {
	Frames     [][]byte
	Start, End int64
	Master     Master
	Why        string
}

// Reasons a Restart carries in Why. A bad master is corrupt, or names no
// checkpoint record of its LSN: another log's, or a longer life of this one.
const (
	WhyNoMaster  = "no master record"
	WhyBadMaster = "master names no checkpoint frame"
)

// readRestart resolves a ReadRestart from the stored master record and
// scan, which returns the durable frames from a position on and their end.
func readRestart(master []byte, scan func(from int64) ([][]byte, int64, error)) (r Restart, err error) {
	r.Why = WhyBadMaster
	if len(master) == 0 {
		r.Why = WhyNoMaster
	} else if r.Master, err = DecodeMaster(master); err == nil {
		if r.Frames, r.End, err = scan(r.Master.Pos); err != nil {
			return r, err
		}
		if recs, _ := decodeFrames(r.Frames[:min(1, len(r.Frames))]); len(recs) == 1 &&
			recs[0].Type == TCheckpoint && recs[0].LSN == r.Master.LSN && len(recs[0].Active) == 0 {
			r.Start, r.Why = r.Master.Pos, ""
			return r, nil
		}
	}
	r.Frames, r.End, err = scan(0)
	return r, err
}

// RestartOf is ReadRestart for a device that holds its durable frames and
// master record in memory (MemDevice, storage.SimWAL).
func RestartOf(frames [][]byte, master []byte) Restart {
	r, _ := readRestart(master, func(from int64) (tail [][]byte, end int64, _ error) {
		for i, f := range frames {
			if end == from {
				tail = frames[i:]
			}
			end += int64(len(f))
		}
		return tail, end, nil
	})
	return r
}

// MemDevice is an in-memory Device with explicit crash simulation: Crash
// discards the unsynced tail, exactly what a power failure does to a real
// disk queue. The recovery experiments (E9) depend on this.
type MemDevice struct {
	mu       sync.Mutex
	durable  [][]byte
	buffered [][]byte
	master   []byte
	syncs    uint64
}

// NewMemDevice returns an empty in-memory log device.
func NewMemDevice() *MemDevice { return &MemDevice{} }

// Append implements Device, keeping the run's frames apart.
func (d *MemDevice) Append(run []byte) error {
	frames := SplitRun(append([]byte(nil), run...))
	d.mu.Lock()
	d.buffered = append(d.buffered, frames...)
	d.mu.Unlock()
	return nil
}

// Sync implements Device.
func (d *MemDevice) Sync() error {
	d.mu.Lock()
	d.durable = append(d.durable, d.buffered...)
	d.buffered = nil
	d.syncs++
	d.mu.Unlock()
	return nil
}

// ReadDurable implements Device.
func (d *MemDevice) ReadDurable() ([][]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([][]byte, len(d.durable))
	copy(out, d.durable)
	return out, nil
}

// ReadRestart implements Device.
func (d *MemDevice) ReadRestart() (Restart, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return RestartOf(d.durable, d.master), nil
}

// WriteMaster implements Device.
func (d *MemDevice) WriteMaster(m Master) error {
	d.mu.Lock()
	d.master = m.Encode()
	d.mu.Unlock()
	return nil
}

// Crash discards all unsynced frames, simulating a power failure.
func (d *MemDevice) Crash() {
	d.mu.Lock()
	d.buffered = nil
	d.mu.Unlock()
}

// Syncs returns how many times Sync has been called; the logging-cost
// experiment (E3) uses it to compare forced-write counts.
func (d *MemDevice) Syncs() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

// Close implements Device.
func (d *MemDevice) Close() error { return nil }

// zeroAhead is how far FileDevice writes zeros past a run that grows the
// file: later runs overwrite those blocks, so their force (fdatasync)
// flushes data and commits no file-system journal.
const zeroAhead = 64 << 10

var zeros [zeroAhead]byte

// FileDevice is a Device over a file of frames, each u32 length + u32
// crc32c + payload, written at the end of the last frame. A run that grows
// the file is followed by zeroAhead zeros, which Close cuts off. A read
// ends at the first zero header (no frame is empty), torn or corrupt
// frame; the bytes past the last frame, up to the last non-zero one, are a
// torn tail (a power cut mid-append), tolerated and reported by TailTorn.
// The master record is the file path+".ckpt", rewritten in place: a torn
// or lost rewrite fails its checksum or names an older checkpoint.
type FileDevice struct {
	mu   sync.Mutex
	f    *os.File
	path string

	// end is the end of the last frame, where the next run lands; the bytes
	// from there to size, the length the file was grown to, are zeros.
	end, size int64

	// tornTail/tornBytes record the tail observation of the last read:
	// whether bytes past the last valid frame were found.
	tornTail  bool
	tornBytes int64
}

// OpenFileDevice opens or creates the log file at path.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileDevice{f: f, path: path, end: fi.Size(), size: fi.Size()}, nil
}

// Append implements Device: one write at the end of the last frame, and one
// of zeros after it when it grew the file.
func (d *FileDevice) Append(run []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, err := d.f.WriteAt(run, d.end)
	d.end += int64(n)
	if err == nil && d.end > d.size {
		n, err = d.f.WriteAt(zeros[:], d.end)
		d.size = d.end + int64(n)
	}
	return err
}

// Sync implements Device with fdatasync, outside the mutex: appends proceed
// during a force.
func (d *FileDevice) Sync() error { return datasync(d.f) }

// scan reads the file from offset from into one buffer and returns the
// frames there, as views of it, up to the first zero header, torn or corrupt
// frame, and their end. Caller holds d.mu.
func (d *FileDevice) scan(from int64) ([][]byte, int64, error) {
	fi, err := d.f.Stat()
	if err != nil {
		return nil, 0, err
	}
	buf := make([]byte, max(fi.Size()-from, 0))
	if _, err := d.f.ReadAt(buf, from); err != nil && err != io.EOF {
		return nil, 0, err
	}
	var frames [][]byte
	off := 0
	for len(buf)-off >= 8 {
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		if n == 0 || n > len(buf)-off-8 || crc32.Checksum(buf[off+8:off+8+n], recCRC) != binary.LittleEndian.Uint32(buf[off+4:]) {
			break // zeros written ahead, or a torn or corrupt frame: end of log
		}
		frames = append(frames, buf[off:off+8+n:off+8+n])
		off += 8 + n
	}
	d.tornBytes = int64(len(bytes.TrimRight(buf[off:], "\x00")))
	d.tornTail = d.tornBytes > 0
	return frames, from + int64(off), nil
}

// ReadDurable implements Device: every frame from the start of the file.
func (d *FileDevice) ReadDurable() ([][]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	frames, _, err := d.scan(0)
	return frames, err
}

// ReadRestart implements Device. Appends follow it, so it cuts off all past
// the last frame: a torn tail, zeros, and any frame that outlived a lost
// page before it, which a run written over the gap could bring back.
func (d *FileDevice) ReadRestart() (Restart, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	master, err := os.ReadFile(d.path + ".ckpt")
	if err != nil && !os.IsNotExist(err) {
		return Restart{}, err
	}
	r, err := readRestart(master, d.scan)
	if err == nil {
		err = d.cut(r.End)
	}
	return r, err
}

// cut makes end the end of the last frame and of the file. Caller holds d.mu.
func (d *FileDevice) cut(end int64) error {
	d.end = end
	if d.size <= end {
		return nil
	}
	d.size = end
	return d.f.Truncate(end)
}

// WriteMaster implements Device.
func (d *FileDevice) WriteMaster(m Master) error {
	f, err := os.OpenFile(d.path+".ckpt", os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.WriteAt(m.Encode(), 0); err == nil {
		err = datasync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// TailTorn implements TailReporter: it reports the tail observation of the
// most recent read (bytes past the last valid frame up to the last non-zero
// one, left by a frame append a power cut interrupted).
func (d *FileDevice) TailTorn() (bool, int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tornTail, d.tornBytes
}

// Close implements Device. It cuts the zeros written ahead off the file,
// which then holds its frames and nothing else.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return errors.Join(d.cut(d.end), d.f.Close())
}

// appendFrame appends to b one frame whose payload is what put appends,
// behind the length and checksum it fills in afterwards.
func appendFrame(b []byte, put func([]byte) []byte) []byte {
	n := len(b)
	b = put(append(b, 0, 0, 0, 0, 0, 0, 0, 0))
	payload := b[n+8:]
	binary.LittleEndian.PutUint32(b[n:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[n+4:], crc32.Checksum(payload, recCRC))
	return b
}

// SplitRun cuts a run, as Device.Append receives it, into its frames (views
// of run); bytes that do not hold a whole frame end it as one piece.
func SplitRun(run []byte) (frames [][]byte) {
	for n := 0; len(run) > 0; run = run[n:] {
		n = len(run)
		if n >= 8 {
			n = int(min(uint64(n), 8+uint64(binary.LittleEndian.Uint32(run))))
		}
		frames = append(frames, run[:n:n])
	}
	return frames
}

// unframe strips and verifies framing.
func unframe(f []byte) ([]byte, error) {
	if len(f) < 8 {
		return nil, fmt.Errorf("%w: short frame", ErrBadRecord)
	}
	n := binary.LittleEndian.Uint32(f[0:])
	want := binary.LittleEndian.Uint32(f[4:])
	if int(n) != len(f)-8 {
		return nil, fmt.Errorf("%w: frame length mismatch", ErrBadRecord)
	}
	payload := f[8:]
	if crc32.Checksum(payload, recCRC) != want {
		return nil, fmt.Errorf("%w: frame checksum", ErrBadRecord)
	}
	return payload, nil
}
