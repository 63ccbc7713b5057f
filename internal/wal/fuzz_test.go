package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"blinktree/internal/core"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// realLogSeeds runs two small trees (the paper's delete policy and the drain
// comparator) through every kind of logged work and returns one frame of
// each record kind — every Type, every SMOKind, every Op, a CLR, a record
// op carrying its page's first-change image — as the log devices hold them. It fails if a kind is missing, so the corpus
// cannot silently thin out.
func realLogSeeds(t testing.TB) [][]byte {
	t.Helper()
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%05d-%020d", i, i)) }
	var devs []*wal.MemDevice
	for _, policy := range []core.DeletePolicy{core.DeleteState, core.Drain} {
		dev := wal.NewMemDevice()
		devs = append(devs, dev)
		tr, err := core.New(core.Options{
			PageSize: 512, MinFill: 0.35, Workers: core.WorkersNone, DeletePolicy: policy,
			Store: storage.NewMemStore(512), LogDevice: dev,
		})
		if err != nil {
			t.Fatal(err)
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		must(tr.BulkLoad(func() ([]byte, []byte, bool) {
			i++
			return key(i), val(i), i <= 40
		}, 0.7))
		for i := 100; i < 300; i++ {
			must(tr.Put(key(i), val(i)))
		}
		tr.DrainTodo()
		must(tr.Put(key(100), val(7)))
		x, err := tr.Begin()
		must(err)
		must(x.Put(key(500), val(500)))
		must(x.Commit())
		x, err = tr.Begin()
		must(err)
		must(x.Put(key(501), val(501)))
		must(x.Abort())
		for i := 0; i < 300; i++ {
			if err := tr.Delete(key(i)); err != nil && !errors.Is(err, core.ErrKeyNotFound) {
				t.Fatal(err)
			}
		}
		// A root left with one child is noticed by the next descent.
		for j := 0; j < 4; j++ {
			tr.DrainTodo()
			tr.Get(key(0))
		}
		must(tr.Close())
	}
	seen := map[string][]byte{}
	for _, dev := range devs {
		frames, err := dev.ReadDurable()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			payload, err := wal.Unframe(f)
			if err != nil {
				t.Fatal(err)
			}
			r, err := wal.DecodeRecord(payload)
			if err != nil {
				t.Fatal(err)
			}
			kind := r.Type.String()
			switch r.Type {
			case wal.TSMO:
				kind += " " + r.SMO.String()
			case wal.TRecOp:
				kind += fmt.Sprintf(" %s clr=%v", r.Op, r.CLR)
				if len(r.Images) > 0 {
					kind += " image"
				}
			}
			if seen[kind] == nil {
				seen[kind] = f
			}
		}
	}
	var seeds [][]byte
	for typ := wal.TBegin; typ <= wal.TCheckpoint; typ++ {
		kinds := []string{typ.String()}
		switch typ {
		case wal.TSMO:
			kinds = nil
			for k := wal.SMOSplit; k <= wal.SMOBulkCommit; k++ {
				kinds = append(kinds, typ.String()+" "+k.String())
			}
		case wal.TRecOp:
			kinds = []string{"RECOP insert clr=false", "RECOP update clr=false", "RECOP delete clr=false", "RECOP delete clr=true",
				"RECOP insert clr=false image"}
		}
		for _, k := range kinds {
			if seen[k] == nil {
				t.Fatalf("the real logs hold no %q record (have %d kinds)", k, len(seen))
			}
			seeds = append(seeds, seen[k])
		}
	}
	return seeds
}

// FuzzDecodeWALRecord feeds arbitrary bytes to the frame and record
// decoders: each must return ErrBadRecord or a value that encodes back to
// exactly the input — never panic, never allocate by an unchecked length.
func FuzzDecodeWALRecord(f *testing.F) {
	for _, frame := range realLogSeeds(f) {
		f.Add(frame)
		f.Add(frame[8:])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		payload, err := wal.Unframe(b)
		switch {
		case err == nil:
			if !bytes.Equal(payload, b[8:]) {
				t.Fatalf("unframe returned %d bytes that are not the frame's payload", len(payload))
			}
		case !errors.Is(err, wal.ErrBadRecord):
			t.Fatalf("unframe: untyped error %v", err)
		default:
			payload = b
		}
		r, err := wal.DecodeRecord(payload)
		if err != nil {
			if !errors.Is(err, wal.ErrBadRecord) {
				t.Fatalf("DecodeRecord: untyped error %v", err)
			}
			return
		}
		if enc := r.Encode(); !bytes.Equal(enc, payload) {
			t.Fatalf("decoded record encodes to different bytes:\n in  %x\n out %x", payload, enc)
		}
	})
}

// FuzzDecodeMaster is the same contract for the master record.
func FuzzDecodeMaster(f *testing.F) {
	f.Add(wal.Master{Pos: 4096, LSN: 77}.Encode())
	f.Add(wal.Master{}.Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := wal.DecodeMaster(b)
		if err != nil {
			if !errors.Is(err, wal.ErrBadRecord) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if !bytes.Equal(m.Encode(), b) {
			t.Fatalf("decoded master %+v encodes to different bytes", m)
		}
	})
}
