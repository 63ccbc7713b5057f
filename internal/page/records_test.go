package page

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestRecordsAgainstModel drives a decoded leaf's Records through random
// inserts, overwrites, deletes, truncations and appends against a sorted
// model, on keys that share the fixture's prefix, break it, or are short
// enough to end inside a head. After every step Search agrees with
// sort.Search, with and without a comparator, the heads are the ones a
// rebuild computes, the leaf encodes to the bytes the model marshals to, and
// no key or value slice handed out earlier has changed.
func TestRecordsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	start := pageFixtures()["leaf"]
	img, err := Marshal(start, 4096)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Unmarshal(img)
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := slices.Clone(start.Keys), slices.Clone(start.Vals)
	var views, copies [][]byte
	hand := func(b []byte) {
		views, copies = append(views, b), append(copies, bytes.Clone(b))
	}
	r := &c.Recs
	for step := 0; step < 3000; step++ {
		k := modelKey(rng)
		v := make([]byte, rng.Intn(60))
		rng.Read(v)
		i := sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], k) >= 0 })
		found := i < len(keys) && bytes.Equal(keys[i], k)
		checkSearch(t, r, keys, k)
		switch op := rng.Intn(20); {
		case found && op < 8 && c.Size()+len(v)-len(r.Val(i)) <= 4096:
			hand(r.Val(i))
			r.Set(i, v)
			vals[i] = v
		case found && op < 16:
			hand(r.Key(i))
			r.Delete(i)
			keys, vals = slices.Delete(keys, i, i+1), slices.Delete(vals, i, i+1)
		case !found && op < 16 && c.Size()+EntrySize(Leaf, len(k), len(v)) <= 4096:
			r.Insert(i, k, v)
			keys, vals = slices.Insert(keys, i, k), slices.Insert(vals, i, v)
		case op == 19 && r.Len() > 4:
			// A split and a consolidation: the upper half moves out and back.
			var right Records
			mid := r.Len() / 2
			right.AppendFrom(r, mid)
			r.Truncate(mid)
			hand(right.Key(0))
			r.AppendFrom(&right, 0)
		}
		if r.Len() > 0 {
			j := rng.Intn(r.Len())
			hand(r.Key(j))
			hand(r.Val(j))
		}
		want := *c
		want.Keys, want.Vals, want.Recs = keys, vals, Records{}
		got, err := Marshal(c, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if exp, _ := Marshal(&want, 4096); !bytes.Equal(got, exp) {
			t.Fatalf("step %d: records encode differently from the model", step)
		}
		if c.Size() != want.Size() {
			t.Fatalf("step %d: Size %d, model %d", step, c.Size(), want.Size())
		}
		checkHeads(t, r)
		for j, b := range views {
			if !bytes.Equal(b, copies[j]) {
				t.Fatalf("step %d: view %d was rewritten", step, j)
			}
		}
	}
	if !bytes.Equal(img, mustMarshal(t, start)) {
		t.Fatal("the decoded image was written")
	}
}

func mustMarshal(t *testing.T, c *Content) []byte {
	t.Helper()
	b, err := Marshal(c, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestIndexRecordsCopyOnWrite drives decoded index Records — one rebuilt
// from a page stored stripped, one still reading its image — through random
// inserts, deletes, truncations and appends against a sorted model, taking a
// copy of the struct before every step, as an index node hands its snapshot
// to latch-free readers before each change. After every step the Records
// encodes to the bytes the model marshals to, and every copy taken still
// holds the slots, heads included, and the prefix, and reads and searches
// the entries it did when it was taken: the last 16 after each step, all of
// them every 250 steps.
func TestIndexRecordsCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range []string{"index", "inf-index"} {
		start := pageFixtures()[name]
		c, err := Unmarshal(mustMarshal(t, start))
		if err != nil {
			t.Fatal(err)
		}
		c.High = nil // room for keys past the fixture's
		keys, kids := slices.Clone(start.Keys), slices.Clone(start.Children)
		type held struct {
			r     Records
			slots []uint64
			pfx   []byte
			keys  [][]byte
			kids  []PageID
		}
		var copies []held
		r := &c.Recs
		for step := 0; step < 1001; step++ {
			copies = append(copies, held{*r, slices.Clone(r.slots), bytes.Clone(r.pfx), slices.Clone(keys), slices.Clone(kids)})
			k := append(slices.Clone(keys[0]), byte(rng.Intn(256)), byte(rng.Intn(256)))
			i, found := slices.BinarySearchFunc(keys, k, bytes.Compare)
			switch op := rng.Intn(10); {
			case !found && op < 5 && c.Size()+EntrySize(Index, len(k), 0) < 3400:
				child := PageID(rng.Intn(1000))
				r.InsertChild(i, k, child)
				keys, kids = slices.Insert(keys, i, k), slices.Insert(kids, i, child)
			case op < 8 && len(keys) > 1:
				i = 1 + rng.Intn(len(keys)-1)
				r.Delete(i)
				keys, kids = slices.Delete(keys, i, i+1), slices.Delete(kids, i, i+1)
			case len(keys) > 4:
				// A split and a consolidation: the upper half moves out and back.
				var right Records
				mid := len(keys) / 2
				right.AppendFrom(r, mid)
				r.Truncate(mid)
				r.AppendFrom(&right, 0)
			}
			checkHeads(t, r)
			want := *c
			want.Keys, want.Children, want.Recs = keys, kids, Records{}
			if got, exp := mustMarshal(t, c), mustMarshal(t, &want); !bytes.Equal(got, exp) {
				t.Fatalf("%s step %d: entries encode differently from the model", name, step)
			}
			from := max(len(copies)-16, 0)
			if step%250 == 0 {
				from = 0
			}
			for j, h := range copies[from:] {
				if !slices.Equal(h.r.slots, h.slots) || !bytes.Equal(h.r.pfx, h.pfx) {
					t.Fatalf("%s step %d: copy %d's slots or prefix were written", name, step, j)
				}
				checkSearch(t, &h.r, h.keys, h.keys...)
				for e := range h.keys {
					if !bytes.Equal(h.r.Key(e), h.keys[e]) || h.r.Child(e) != h.kids[e] {
						t.Fatalf("%s step %d: copy %d entry %d changed", name, step, j, e)
					}
				}
			}
		}
	}
}

// modelKey draws a key for the fixture leaf: mostly one that shares its
// "user" prefix, sometimes one that breaks it, ends inside a head, is empty,
// or runs past a head behind a long shared prefix.
func modelKey(rng *rand.Rand) []byte {
	switch rng.Intn(8) {
	case 0:
		return []byte{"abc"[rng.Intn(3)], "\x00b"[rng.Intn(2)]}[:rng.Intn(3)]
	case 1:
		return append([]byte("user000000000001"), byte(rng.Intn(4)), byte(rng.Intn(16)))
	default:
		return []byte{'u', 's', 'e', 'r', byte('0' + rng.Intn(3)), byte(rng.Intn(64))}
	}
}

// checkSearch checks r's search for each probe, on its heads and through a
// comparator, against sort.Search over keys, r's keys in order.
func checkSearch(t *testing.T, r *Records, keys [][]byte, probes ...[]byte) {
	t.Helper()
	for _, k := range probes {
		i := sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], k) >= 0 })
		found := i < len(keys) && bytes.Equal(keys[i], k)
		if j, ok := r.Search(nil, k); j != i || ok != found {
			t.Fatalf("Search(%q) in %q = %d, %v; want %d, %v", k, keys, j, ok, i, found)
		}
		if j, ok := r.Search(bytes.Compare, k); j != i || ok != found {
			t.Fatalf("Search(bytes.Compare, %q) in %q = %d, %v; want %d, %v", k, keys, j, ok, i, found)
		}
	}
}

// checkHeads checks that every key of r but the first has r's prefix and
// every slot holds its key's head past it.
func checkHeads(t *testing.T, r *Records) {
	t.Helper()
	for i := range r.Len() {
		k := r.Key(i)
		if i > 0 && !bytes.HasPrefix(k, r.pfx) {
			t.Fatalf("key %d %q lacks the prefix %q", i, k, r.pfx)
		}
		if h := uint32(r.slots[i] >> 32); h != head(k, len(r.pfx)) {
			t.Fatalf("key %d %q has head %08x past %q, want %08x", i, k, h, r.pfx, head(k, len(r.pfx)))
		}
	}
}

// FuzzRecordsSearch runs a decoded leaf and a decoded index page's Records
// through the operations data spells out, each step an op byte and an
// argument byte: insert a key, delete, overwrite a value, truncate, split
// and merge back, or copy into fresh Records through AppendFrom; inserts
// into an image and a full tail compact. Keys are a byte of length (mod 24)
// and that many bytes from a small alphabet, behind a prefix of pfx's first
// (length byte / 24) bytes, so empty keys, keys that are prefixes of others,
// trailing zeros, long shared prefixes and keys longer than a head are
// common. After every step both Records hold the model's keys, every head is
// the rebuilt one, and Search agrees with sort.Search for every key, every
// key with a byte added, dropped or bumped, and the empty key; a copy of the
// index Records taken before the step still searches as before.
func FuzzRecordsSearch(f *testing.F) {
	f.Add([]byte{}, []byte("a"))
	f.Add([]byte("\x00\x02\x02ab\x00\x03\x03ab\x00\x03\x01"), []byte("ab"))
	f.Add([]byte("\x00\xfa\x01\x00\xf9\x02\x00\xfb\x07\x06\x01\x03\x02"), []byte("0123456789abcdef"))
	f.Add([]byte("\x00\x05\x0dprefix\x00\x06\x0eprefixA\x00\x06\x0eprefixB\x04\x01"), []byte("prefix-longer"))
	f.Add([]byte("\x00\x01a\x00\x01b\x00\x01c\x05\x01\x07\x00\x03\x00"), []byte{})
	alphabet := []byte{0x00, 0x01, 'a', 'b', 0xff}
	f.Fuzz(func(t *testing.T, data, pfx []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		leafImg, err := Marshal(&Content{Kind: Leaf, Keys: [][]byte{}, Vals: [][]byte{}}, 4096)
		if err != nil {
			t.Fatal(err)
		}
		indexImg, err := Marshal(&Content{Kind: Index, Low: []byte{}, Keys: [][]byte{{}}, Children: []PageID{1}}, 4096)
		if err != nil {
			t.Fatal(err)
		}
		leafC, _ := Unmarshal(leafImg)
		indexC, _ := Unmarshal(indexImg)
		leaf, index := &leafC.Recs, &indexC.Recs
		var keys [][]byte // the leaf's; the index holds the empty key before them
		for steps := 0; len(data) > 0 && steps < 200; steps++ {
			op, arg := next()%8, next()
			before, beforeKeys := *index, append([][]byte{{}}, keys...)
			switch {
			case op < 4:
				l := int(arg) % 24
				k := append([]byte(nil), pfx[:min(len(pfx), int(arg)/24)]...)
				for range l {
					k = append(k, alphabet[int(next())%len(alphabet)])
				}
				i, found := slices.BinarySearchFunc(keys, k, bytes.Compare)
				if found || len(k) == 0 {
					break // the index's first key is the empty key
				}
				leaf.Insert(i, k, []byte{arg})
				index.InsertChild(i+1, k, PageID(i))
				keys = slices.Insert(keys, i, k)
			case len(keys) == 0:
			case op == 4:
				i := int(arg) % len(keys)
				leaf.Delete(i)
				index.Delete(i + 1)
				keys = slices.Delete(keys, i, i+1)
			case op == 5:
				leaf.Set(int(arg)%len(keys), []byte{arg, arg})
			case op == 6:
				i := int(arg) % (len(keys) + 1)
				var lr, ir Records
				lr.AppendFrom(leaf, i)
				ir.AppendFrom(index, i+1)
				leaf.Truncate(i)
				index.Truncate(i + 1)
				if arg&1 == 0 {
					leaf.AppendFrom(&lr, 0)
					index.AppendFrom(&ir, 0)
				} else {
					keys = keys[:i]
				}
			default:
				var lr, ir Records
				lr.AppendFrom(leaf, 0)
				ir.AppendFrom(index, 0)
				*leaf, *index = lr, ir
			}
			all := append([][]byte{{}}, keys...)
			for _, rc := range []struct {
				r    *Records
				keys [][]byte
			}{{leaf, keys}, {index, all}} {
				if rc.r.Len() != len(rc.keys) {
					t.Fatalf("step %d: %d entries, model %d", steps, rc.r.Len(), len(rc.keys))
				}
				for i, k := range rc.keys {
					if !bytes.Equal(rc.r.Key(i), k) {
						t.Fatalf("step %d: key %d %q, model %q", steps, i, rc.r.Key(i), k)
					}
				}
				checkHeads(t, rc.r)
				probes := [][]byte{{}, {0xff, 0xff}}
				for _, k := range rc.keys {
					probes = append(probes, k, append(slices.Clip(k), 0), append(slices.Clip(k), 'a'))
					if len(k) > 0 {
						bumped := bytes.Clone(k)
						bumped[len(k)-1]++
						probes = append(probes, k[:len(k)-1], bumped)
					}
				}
				checkSearch(t, rc.r, rc.keys, probes...)
			}
			checkSearch(t, &before, beforeKeys, beforeKeys...)
		}
	})
}
