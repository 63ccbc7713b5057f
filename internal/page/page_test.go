package page

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func leafContent() *Content {
	return &Content{
		ID: 7, Kind: Leaf, Level: 0, LSN: 42, Right: 9, DD: 0,
		Low:  []byte("apple"),
		High: []byte("mango"),
		Keys: [][]byte{[]byte("apple"), []byte("banana"), []byte("cherry")},
		Vals: [][]byte{[]byte("1"), []byte("2"), []byte("3")},
	}
}

func indexContent() *Content {
	return &Content{
		ID: 3, Kind: Index, Level: 1, LSN: 17, Right: 0, DD: 12,
		Low:      []byte{},
		High:     nil, // +inf
		Keys:     [][]byte{{}, []byte("k1"), []byte("k2")},
		Children: []PageID{10, 11, 12},
	}
}

func TestRoundTripLeaf(t *testing.T) {
	c := leafContent()
	buf, err := Marshal(c, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 4096 {
		t.Fatalf("len(buf) = %d, want 4096", len(buf))
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, flat(got)) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

// flat returns c with its entries moved from Recs into Keys and Vals or
// Children, the form a writer builds a page in, so a decoded page compares
// with the content it was marshaled from.
func flat(c *Content) *Content {
	f := *c
	f.Keys, f.Recs = [][]byte{}, Records{}
	if c.Kind == Leaf {
		f.Vals = [][]byte{}
	} else {
		f.Children = []PageID{}
	}
	for i := range c.Recs.Len() {
		f.Keys = append(f.Keys, c.Recs.Key(i))
		if c.Kind == Leaf {
			f.Vals = append(f.Vals, c.Recs.Val(i))
		} else {
			f.Children = append(f.Children, c.Recs.Child(i))
		}
	}
	return &f
}

// TestMarshalIntoMatchesMarshal: encoding into a reused, dirty buffer gives
// Marshal's bytes — the tail past the payload zeroed — and a buffer too
// small for the content is refused.
func TestMarshalIntoMatchesMarshal(t *testing.T) {
	idx := indexContent()
	idx.Low, idx.High, idx.Compress = []byte("k0"), []byte("k9"), true
	idx.Keys[0] = []byte("k0")
	for _, c := range []*Content{leafContent(), indexContent(), idx} {
		want, err := Marshal(c, 512)
		if err != nil {
			t.Fatal(err)
		}
		buf := bytes.Repeat([]byte{0xFF}, 512)
		if err := MarshalInto(c, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("%s: MarshalInto differs from Marshal", c.Kind)
		}
		if err := MarshalInto(c, buf[:c.Size()-1]); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s: MarshalInto one byte short: %v, want ErrTooLarge", c.Kind, err)
		}
	}
}

func TestRoundTripIndex(t *testing.T) {
	c := indexContent()
	buf, err := Marshal(c, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.High != nil {
		t.Fatalf("High = %q, want nil (+inf)", got.High)
	}
	if got := flat(got); !reflect.DeepEqual(c.Children, got.Children) {
		t.Fatalf("children mismatch: %v vs %v", got.Children, c.Children)
	}
	if got := flat(got); !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestEmptyHighVsNilHigh(t *testing.T) {
	// High == []byte{} (a real empty fence) must be distinguishable from
	// High == nil (+inf) across a round trip.
	c := leafContent()
	c.High = []byte{}
	buf, err := Marshal(c, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.High == nil {
		t.Fatal("empty High decoded as nil")
	}
}

func TestSizeMatchesMarshal(t *testing.T) {
	for _, c := range []*Content{leafContent(), indexContent()} {
		need := c.Size()
		// Marshal into exactly Size bytes must succeed...
		if _, err := Marshal(c, need); err != nil {
			t.Fatalf("Marshal at exact size %d: %v", need, err)
		}
		// ...and into one byte less must fail.
		if _, err := Marshal(c, need-1); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("Marshal at size-1: %v, want ErrTooLarge", err)
		}
	}
}

func TestEntrySize(t *testing.T) {
	if got := EntrySize(Leaf, 5, 7); got != 2+5+2+7 {
		t.Fatalf("EntrySize(Leaf,5,7) = %d", got)
	}
	if got := EntrySize(Index, 5, 999); got != 2+5+8 {
		t.Fatalf("EntrySize(Index,5,_) = %d", got)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	buf, err := Marshal(leafContent(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	buf[headerSize+3] ^= 0xFF
	if _, err := Unmarshal(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Unmarshal of corrupted page: %v, want ErrCorrupt", err)
	}
}

func TestBadMagic(t *testing.T) {
	buf, _ := Marshal(leafContent(), 4096)
	buf[0] = 'X'
	if _, err := Unmarshal(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v, want ErrCorrupt", err)
	}
}

func TestTruncatedBuffer(t *testing.T) {
	buf, _ := Marshal(leafContent(), 4096)
	for _, n := range []int{0, 3, headerSize - 1, headerSize + 2} {
		if _, err := Unmarshal(buf[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Unmarshal(buf[:%d]): %v, want ErrCorrupt", n, err)
		}
	}
}

func TestValidateMismatchedSlices(t *testing.T) {
	c := leafContent()
	c.Vals = c.Vals[:2]
	if _, err := Marshal(c, 4096); err == nil {
		t.Fatal("leaf with mismatched vals marshaled")
	}
	d := indexContent()
	d.Children = d.Children[:1]
	if _, err := Marshal(d, 4096); err == nil {
		t.Fatal("index with mismatched children marshaled")
	}
	e := leafContent()
	e.Kind = Kind(9)
	if _, err := Marshal(e, 4096); err == nil {
		t.Fatal("invalid kind marshaled")
	}
}

func TestUnmarshalRejectsUnknownKind(t *testing.T) {
	buf, _ := Marshal(leafContent(), 4096)
	buf[offKind] = 99
	if _, err := Unmarshal(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown kind: %v, want ErrCorrupt", err)
	}
}

// restamp recomputes img's checksum over its first used bytes, so a test can
// corrupt a field the CRC covers and still reach the check behind it.
func restamp(img []byte, used int) {
	binary.LittleEndian.PutUint32(img[offCRC:], crc32.Checksum(img[crcStart:used], castagnoli))
}

// Two images the fuzz target's properties rule out, with valid checksums:
// both used to decode, into a Content that Marshal either could not write or
// wrote differently.
func TestUnmarshalRejectsUnknownFlags(t *testing.T) {
	c := leafContent()
	img, _ := Marshal(c, 4096)
	img[offFlags] |= 1 << 5
	restamp(img, c.Size())
	if _, err := Unmarshal(img); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown flag bit: %v, want ErrCorrupt", err)
	}
}

func TestUnmarshalRejectsOversizedRebuiltKey(t *testing.T) {
	// A prefix-compressed page whose stored key tail plus the elided fence
	// prefix exceeds what an entry length can express.
	prefix := bytes.Repeat([]byte{'p'}, 40000)
	c := &Content{
		ID: 1, Kind: Index, Level: 1, Compress: true,
		Low: append(bytes.Clone(prefix), '1'), High: append(bytes.Clone(prefix), '2'),
		Keys: [][]byte{append(bytes.Clone(prefix), '1')}, Children: []PageID{9},
	}
	img, err := Marshal(c, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	// Grow the one stored tail ("1", 1 byte) to 30000 bytes of whatever
	// follows it: the child pointer and the page's zero padding.
	tail := offPayload + len(c.Low) + len(c.High)
	binary.LittleEndian.PutUint16(img[tail:], 30000)
	restamp(img, tail+2+30000+8)
	if _, err := Unmarshal(img); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rebuilt key of 70000 bytes: %v, want ErrCorrupt", err)
	}
}

// TestUnmarshalOwnership pins the decode contract: a page's entries are
// views of the image handed over, but for an index page stored with its
// fence prefix stripped, whose keys are rebuilt in an arena; fences are
// arena copies (a node keeps no view of its image but its entries); every
// slice is cap-limited so an append can never grow into a neighbour; and the
// decoder itself never writes the image.
func TestUnmarshalOwnership(t *testing.T) {
	for name, c := range pageFixtures() {
		t.Run(name, func(t *testing.T) {
			img, err := Marshal(c, 4096)
			if err != nil {
				t.Fatal(err)
			}
			orig := bytes.Clone(img)
			got, err := Unmarshal(img)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img, orig) {
				t.Fatal("Unmarshal wrote to the image")
			}
			checkCapLimited(t, got)
			g := flat(got) // the record views, taken before the image changes
			for i := range img {
				img[i] ^= 0xFF
			}
			// A view follows the flipped image; a copy keeps the bytes (an
			// empty slice passes as either).
			view := func(got, was []byte) bool { return len(was) == 0 || !bytes.Equal(got, was) }
			leaf := c.Kind == Leaf
			if view(got.Low, c.Low) && len(c.Low) > 0 || view(got.High, c.High) && len(c.High) > 0 {
				t.Fatal("a fence follows the image: fences must be arena copies")
			}
			if len(got.Keys)+len(got.Vals)+len(got.Children) > 0 || got.Recs.Len() != len(c.Keys) {
				t.Fatalf("%s decoded into %d keys and %d records, want %d records", c.Kind, len(got.Keys), got.Recs.Len(), len(c.Keys))
			}
			stripped := c.PrefixLen() > 0
			for i := range got.Recs.Len() {
				if leaf && (!view(g.Keys[i], c.Keys[i]) || !view(g.Vals[i], c.Vals[i])) {
					t.Fatalf("record %d was copied: a leaf's keys and values must be views of the image", i)
				}
				if !leaf && len(c.Keys[i]) > 0 && view(g.Keys[i], c.Keys[i]) == stripped {
					t.Fatalf("index key %d: a view of the image is wanted exactly when the page was not stored stripped (%v)", i, !stripped)
				}
			}
		})
	}
}

// checkCapLimited fails unless every slice of a decoded page has cap == len.
func checkCapLimited(t *testing.T, c *Content) {
	t.Helper()
	if cap(c.Low) != len(c.Low) || cap(c.High) != len(c.High) || cap(c.Keys) != len(c.Keys) ||
		cap(c.Vals) != len(c.Vals) || cap(c.Children) != len(c.Children) {
		t.Fatal("fence or header slice with cap > len")
	}
	for i, k := range c.Keys {
		if cap(k) != len(k) {
			t.Fatalf("entry %d has cap > len", i)
		}
	}
	for i := range c.Recs.Len() {
		if k := c.Recs.Key(i); cap(k) != len(k) {
			t.Fatalf("entry %d has cap > len", i)
		}
		if v := c.Recs.Val; c.Kind == Leaf && cap(v(i)) != len(v(i)) {
			t.Fatalf("record %d has cap > len", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if Leaf.String() != "leaf" || Index.String() != "index" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(9).String() != "kind(9)" {
		t.Fatalf("Kind(9).String() = %q", Kind(9).String())
	}
}

// randomContent builds a structurally valid random Content.
func randomContent(rng *rand.Rand) *Content {
	c := &Content{
		ID:    PageID(rng.Uint64()%1000 + 1),
		LSN:   rng.Uint64() % 100000,
		Right: PageID(rng.Uint64() % 50),
		DD:    rng.Uint64() % 1000,
		Epoch: rng.Uint64() % 100000,
		Level: uint8(rng.Intn(4)),
	}
	if rng.Intn(2) == 0 {
		c.Kind = Leaf
		c.Level = 0
	} else {
		c.Kind = Index
		c.Level = uint8(rng.Intn(3) + 1)
	}
	randKey := func(maxLen int) []byte {
		b := make([]byte, rng.Intn(maxLen))
		rng.Read(b)
		return b
	}
	c.Low = randKey(20)
	if rng.Intn(3) > 0 {
		c.High = randKey(20)
	}
	n := rng.Intn(30)
	for i := 0; i < n; i++ {
		c.Keys = append(c.Keys, randKey(32))
		if c.Kind == Leaf {
			c.Vals = append(c.Vals, randKey(64))
		} else {
			c.Children = append(c.Children, PageID(rng.Uint64()%10000+1))
		}
	}
	if c.Kind == Leaf {
		if c.Vals == nil {
			c.Vals = [][]byte{}
		}
	} else if c.Children == nil {
		c.Children = []PageID{}
	}
	if c.Keys == nil {
		c.Keys = [][]byte{}
	}
	return c
}

// TestQuickRoundTrip property-tests Marshal/Unmarshal over random contents.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomContent(rng)
		size := c.Size()
		buf, err := Marshal(c, size+rng.Intn(256))
		if err != nil {
			t.Logf("marshal: %v", err)
			return false
		}
		got, err := Unmarshal(buf)
		if err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		return reflect.DeepEqual(c, flat(got))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCorruptionDetected flips one random byte in the payload and
// verifies the checksum catches it (header magic corruption is caught by the
// magic check instead).
func TestQuickCorruptionDetected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomContent(rng)
		buf, err := Marshal(c, c.Size())
		if err != nil {
			return false
		}
		if len(buf) <= crcStart {
			return true
		}
		pos := crcStart + rng.Intn(len(buf)-crcStart)
		buf[pos] ^= byte(1 + rng.Intn(255))
		_, err = Unmarshal(buf)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalLeaf(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := &Content{ID: 1, Kind: Leaf, Low: []byte("a"), High: []byte("z")}
	for i := 0; i < 100; i++ {
		c.Keys = append(c.Keys, []byte(fmt.Sprintf("key-%06d", i)))
		v := make([]byte, 16)
		rng.Read(v)
		c.Vals = append(c.Vals, v)
	}
	size := c.Size()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(c, size); err != nil {
			b.Fatal(err)
		}
	}
}

// pageFixtures are the page shapes the decoder is benchmarked, fuzzed and
// contract-tested on: the repository benchmark's record shape (16-byte keys,
// 100-byte values) in an 85 %-full 4 KiB leaf, an empty leaf, a
// prefix-compressed index page and a rightmost (+inf fence) index page.
func pageFixtures() map[string]*Content {
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }
	leaf := &Content{ID: 1, Kind: Leaf, LSN: 9, Right: 2, Epoch: 3, Low: key(0), High: key(1000)}
	for i := 0; leaf.Size()+EntrySize(Leaf, 16, 100) <= 4096*85/100; i++ {
		leaf.Keys = append(leaf.Keys, key(i))
		leaf.Vals = append(leaf.Vals, bytes.Repeat([]byte{byte(i)}, 100))
	}
	index := &Content{ID: 4, Kind: Index, Level: 1, DD: 5, Right: 6, Low: key(0), High: key(1000), Compress: true}
	inf := &Content{ID: 7, Kind: Index, Level: 2, Low: []byte{}}
	for i := 0; i < 150; i++ {
		index.Keys = append(index.Keys, key(i))
		index.Children = append(index.Children, PageID(100+i))
		inf.Keys = append(inf.Keys, key(i)[:16*min(i, 1)]) // the leftmost separator is -inf
		inf.Children = append(inf.Children, PageID(300+i))
	}
	return map[string]*Content{
		"leaf":       leaf,
		"empty-leaf": {ID: 8, Kind: Leaf, Low: key(5), High: key(6), Keys: [][]byte{}, Vals: [][]byte{}},
		"index":      index,
		"inf-index":  inf,
	}
}

// BenchmarkUnmarshal decodes a full leaf and a prefix-compressed index page.
// The allocation counts are gates, not reports: either page decodes into one
// slot array and one arena, for its fences and, on a page stored stripped,
// its rebuilt entries; neither ever allocates per entry.
func BenchmarkUnmarshal(b *testing.B) {
	for name, gate := range map[string]float64{"leaf": 2, "index": 2} {
		b.Run(name, func(b *testing.B) {
			img, err := Marshal(pageFixtures()[name], 4096)
			if err != nil {
				b.Fatal(err)
			}
			if n := testing.AllocsPerRun(100, func() { Unmarshal(img) }); n > gate {
				b.Fatalf("Unmarshal(%s) = %.0f allocs/op, gate is %.0f", name, n, gate)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Unmarshal(img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// entriesEnd walks img's entry lengths as the format lays them out and
// returns the offset just past the last entry — the end of the checksummed
// range — or 0 when the walk leaves the buffer. It is the fuzz target's own
// reading of the layout, independent of Unmarshal's.
func entriesEnd(img []byte) int {
	if len(img) < headerSize {
		return 0
	}
	u16 := func(off int) int { return int(binary.LittleEndian.Uint16(img[off:])) }
	p := offPayload + u16(offLowLen) + u16(offHighLen)
	for i := u16(offKeyCount); i > 0 && p+2 <= len(img); i-- {
		p += 2 + u16(p)
		if Kind(img[offKind]) == Index {
			p += 8
		} else if p+2 <= len(img) {
			p += 2 + u16(p)
		}
	}
	if p > len(img) {
		return 0
	}
	return p
}

// FuzzUnmarshalPage: bad bytes give ErrCorrupt — never a panic, never a slice
// reaching past the image — and an image that decodes re-marshals to the
// same used bytes: an index page from its arena, a leaf from the records its
// slots find in the image. With stamp set the checksum is recomputed after
// mutation, so the fuzzer gets past the CRC into the structural checks.
func FuzzUnmarshalPage(f *testing.F) {
	for _, c := range pageFixtures() {
		img, err := Marshal(c, 4096)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img, false)
		f.Add(img[:c.Size()], true)
	}
	f.Fuzz(func(t *testing.T, img []byte, stamp bool) {
		// A private copy (the engine's buffer must not be written) with no
		// spare capacity, so a slice past len(img) panics.
		img = append(make([]byte, 0, len(img)), img...)
		if end := entriesEnd(img); stamp && end >= crcStart {
			restamp(img, end)
		}
		orig := bytes.Clone(img)
		c, err := Unmarshal(img)
		if !bytes.Equal(img, orig) {
			t.Fatal("Unmarshal wrote to the image")
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error is not ErrCorrupt: %v", err)
			}
			return
		}
		checkCapLimited(t, c)
		used := c.Size()
		if used > len(img) || used != entriesEnd(img) {
			t.Fatalf("decoded content is %d bytes, image has %d used of %d", used, entriesEnd(img), len(img))
		}
		out, err := Marshal(c, len(img))
		if err != nil {
			t.Fatalf("re-marshal of a decoded page: %v", err)
		}
		if !bytes.Equal(out[:used], img[:used]) {
			t.Fatal("Marshal(Unmarshal(img)) differs from img in its used bytes")
		}
	})
}
