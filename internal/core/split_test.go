package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"blinktree/internal/page"
)

func TestShortestSeparator(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"apple", "banana", "b"},
		{"banana", "bandana", "band"},
		{"abc", "abcd", "abcd"}, // a is a prefix of b: all of b needed
		{"a", "b", "b"},
		{"car", "cat", "cat"},
		{"user0000099", "user0000100", "user00001"},
	}
	for _, c := range cases {
		got := shortestSeparator([]byte(c.a), []byte(c.b))
		if string(got) != c.want {
			t.Errorf("shortestSeparator(%q,%q) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}

// TestQuickShortestSeparatorInvariant: for random a < b, the separator s
// satisfies a < s <= b and is never longer than b.
func TestQuickShortestSeparatorInvariant(t *testing.T) {
	f := func(x, y []byte) bool {
		a, b := x, y
		if bytes.Equal(a, b) {
			return true
		}
		if bytes.Compare(a, b) > 0 {
			a, b = b, a
		}
		s := shortestSeparator(a, b)
		return bytes.Compare(a, s) < 0 &&
			bytes.Compare(s, b) <= 0 &&
			len(s) <= len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSeparatorTruncationShrinksFences: with long shared-prefix keys the
// leaf fences must be much shorter than the keys.
func TestSeparatorTruncationShrinksFences(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	longKey := func(i int) []byte {
		return []byte("tenant-0001/region-eu-west/table-orders/" + string(key(i)))
	}
	for i := 0; i < 800; i++ {
		if err := tr.Put(longKey(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustVerify(t, tr)
	leaves, err := tr.LevelNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) < 3 {
		t.Skip("not enough leaves")
	}
	totalFence, n := 0, 0
	for _, id := range leaves {
		info, _ := tr.NodeSnapshot(id)
		if info.High != nil {
			totalFence += len(info.High)
			n++
		}
	}
	avgFence := totalFence / n
	keyLen := len(longKey(0))
	if avgFence >= keyLen {
		t.Fatalf("average fence %d not shorter than key length %d", avgFence, keyLen)
	}
	// Every key must still be found, and ranges must still partition.
	for i := 0; i < 800; i += 13 {
		if _, err := tr.Get(longKey(i)); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
}

func TestSplitPointBalancesBySize(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 4096})
	n := newNode(1, pageLeafContent())
	// One giant value at the front, many small ones after: the byte-wise
	// split point must land after the giant entry, not at the key midpoint.
	n.c.Keys = append(n.c.Keys, []byte("aaa"))
	n.c.Vals = append(n.c.Vals, bytes.Repeat([]byte("X"), 1000))
	for i := 0; i < 20; i++ {
		n.c.Keys = append(n.c.Keys, []byte{byte('b' + i)})
		n.c.Vals = append(n.c.Vals, []byte("v"))
	}
	mid := tr.splitPoint(n)
	if mid > 5 {
		t.Fatalf("splitPoint = %d; size-weighted split should land early", mid)
	}
	if mid < 1 || mid >= len(n.c.Keys) {
		t.Fatalf("splitPoint = %d out of range", mid)
	}
}

func pageLeafContent() page.Content {
	return page.Content{Kind: page.Leaf, Low: []byte{}, Keys: [][]byte{}, Vals: [][]byte{}}
}

func TestSplitPointIndexPrefersShortFence(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 4096})
	c := page.Content{Kind: page.Index, Level: 1, Low: []byte{}}
	// 33 uniform long keys, with one short key just off the size midpoint.
	// The window (±nk/8 around the midpoint) must pick the short key: it
	// becomes the separator posted to the parent.
	nk := 33
	short := nk/2 + 2
	for i := 0; i < nk; i++ {
		var k []byte
		if i == short {
			k = []byte{byte('a' + i)}
		} else {
			k = bytes.Repeat([]byte{byte('a' + i%26)}, 40)
		}
		c.Keys = append(c.Keys, k)
		c.Children = append(c.Children, page.PageID(100+i))
	}
	n := newNode(1, c)
	if got := tr.splitPoint(n); got != short {
		t.Fatalf("splitPoint = %d, want the short fence at %d", got, short)
	}
	// With no short key in the window, the choice stays near the midpoint.
	n.c.Keys[short] = bytes.Repeat([]byte{'z'}, 40)
	mid := tr.splitPoint(n)
	if abs(mid-nk/2) > nk/8+1 {
		t.Fatalf("splitPoint = %d strayed outside the window around %d", mid, nk/2)
	}
}

// TestPutFollowsResplitSibling: a Put that splits its leaf and must move to
// the new right half can find, by the time that half's latch is granted, that
// other writers reached it through the just-posted index term, filled it and
// split it again — the key then lies two siblings to the right. The move must
// keep following side pointers until the leaf covers the key; inserting into
// the first sibling left a key above its high fence.
//
// The interleaving is forced from inside the Put's own goroutine: the tree's
// comparator is user code, and the first comparison the Put makes after its
// split (the high-fence check that decides the move) does the other writers'
// work before it answers.
func TestPutFollowsResplitSibling(t *testing.T) {
	var tr *Tree
	big := key(999999)
	armed, next := false, 0
	cmp := func(a, b []byte) int {
		if armed && tr.TodoLen() > 0 && bytes.Equal(a, big) {
			armed = false
			tr.DrainTodo() // post the new sibling: reachable through the parent now
			for splits := tr.Stats().Splits; tr.Stats().Splits == splits; next++ {
				if err := tr.Put(key(next), valb(next)); err != nil {
					t.Errorf("interleaved put %d: %v", next, err)
					break
				}
			}
		}
		return bytes.Compare(a, b)
	}
	tr = newTestTree(t, Options{Compare: cmp})
	withoutAppendFast(tr)
	// Fill the root leaf to one record short of its first split.
	need := page.EntrySize(page.Leaf, len(big), len(valb(0)))
	for {
		root, err := tr.fetch(tr.RootID())
		if err != nil {
			t.Fatal(err)
		}
		full := root.size()+need > tr.opts.PageSize
		tr.unpin(root)
		if full {
			break
		}
		if err := tr.Put(key(next), valb(next)); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if tr.Stats().Splits != 0 {
		t.Fatal("setup split the root leaf already")
	}

	armed = true
	if err := tr.Put(big, valb(0)); err != nil {
		t.Fatal(err)
	}
	if armed || tr.Stats().Splits < 2 {
		t.Fatalf("interleaving did not happen (armed=%v, splits=%d)", armed, tr.Stats().Splits)
	}
	mustVerify(t, tr)
	if got, err := tr.Get(big); err != nil || !bytes.Equal(got, valb(0)) {
		t.Fatalf("Get of the moved key: %q, %v", got, err)
	}
}
