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
// model. After every step Search agrees with sort.Search, with and without
// a comparator, the leaf encodes to the bytes the model marshals to, and no
// key or value slice handed out earlier has changed.
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
		k := []byte{'u', 's', 'e', 'r', byte('0' + rng.Intn(3)), byte(rng.Intn(256))}
		v := make([]byte, rng.Intn(60))
		rng.Read(v)
		i := sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], k) >= 0 })
		found := i < len(keys) && bytes.Equal(keys[i], k)
		if j, ok := r.Search(nil, k); j != i || ok != found {
			t.Fatalf("step %d: Search(%q) = %d, %v; want %d, %v", step, k, j, ok, i, found)
		}
		if j, ok := r.Search(bytes.Compare, k); j != i || ok != found {
			t.Fatalf("step %d: Search(bytes.Compare, %q) = %d, %v; want %d, %v", step, k, j, ok, i, found)
		}
		switch op := rng.Intn(20); {
		case found && op < 8:
			hand(r.Val(i))
			r.Set(i, v)
			vals[i] = v
		case found && op < 16:
			hand(r.Key(i))
			r.Delete(i)
			keys, vals = slices.Delete(keys, i, i+1), slices.Delete(vals, i, i+1)
		case !found && op < 16 && c.Size()+EntrySize(Leaf, len(k), len(v)) < 3400:
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
// holds the slots and reads the entries it did when it was taken: the last
// 16 after each step, all of them every 250 steps.
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
			slots []uint32
			keys  [][]byte
			kids  []PageID
		}
		var copies []held
		r := &c.Recs
		for step := 0; step < 1001; step++ {
			copies = append(copies, held{*r, slices.Clone(r.slots), slices.Clone(keys), slices.Clone(kids)})
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
				if !slices.Equal(h.r.slots, h.slots) {
					t.Fatalf("%s step %d: copy %d's slots were written", name, step, j)
				}
				for e := range h.keys {
					if !bytes.Equal(h.r.Key(e), h.keys[e]) || h.r.Child(e) != h.kids[e] {
						t.Fatalf("%s step %d: copy %d entry %d changed", name, step, j, e)
					}
				}
			}
		}
	}
}
