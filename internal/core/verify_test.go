package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"blinktree/internal/latch"
	"blinktree/internal/page"
)

// withNode latches a node exclusively and runs fn on it.
func withNode(t *testing.T, tr *Tree, idx int, lvl uint8, fn func(*node)) {
	t.Helper()
	ids, err := tr.LevelNodes(lvl)
	if err != nil {
		t.Fatal(err)
	}
	if idx >= len(ids) {
		t.Fatalf("level %d has only %d nodes", lvl, len(ids))
	}
	n, err := tr.pinLatch(ids[idx], latch.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	fn(n)
	tr.unlatchUnpin(n, latch.Exclusive, true)
}

func buildVerifyTree(t *testing.T) *Tree {
	tr := newTestTree(t, Options{PageSize: 512})
	for i := 0; i < 600; i++ {
		tr.Put(key(i), valb(i))
	}
	tr.DrainTodo()
	if err := tr.Verify(); err != nil {
		t.Fatalf("baseline tree dirty: %v", err)
	}
	return tr
}

func expectViolation(t *testing.T, tr *Tree, substr string) {
	t.Helper()
	err := tr.Verify()
	if err == nil {
		t.Fatalf("corruption not detected (want %q)", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("violation %q does not mention %q", err, substr)
	}
}

func TestVerifyDetectsKeyOrderViolation(t *testing.T) {
	tr := buildVerifyTree(t)
	withNode(t, tr, 1, 0, func(n *node) {
		if r := &n.c().Recs; r.Len() >= 2 {
			k, v := r.Key(0), r.Val(0)
			r.Delete(0)
			r.Insert(1, k, v)
		}
	})
	expectViolation(t, tr, "out of order")
}

func TestVerifyDetectsFenceViolation(t *testing.T) {
	tr := buildVerifyTree(t)
	withNode(t, tr, 1, 0, func(n *node) {
		v := n.c().Recs.Val(0)
		n.c().Recs.Delete(0)
		n.c().Recs.Insert(0, []byte("\x00below-everything"), v)
		n.c().raw = n.c().countRaw()
	})
	expectViolation(t, tr, "below")
}

func TestVerifyDetectsChainGap(t *testing.T) {
	tr := buildVerifyTree(t)
	withNode(t, tr, 0, 0, func(n *node) {
		// Extending the leftmost leaf's high fence keeps its own
		// invariants intact but breaks High == right sibling's Low.
		s := n.c()
		s.raw++
		s.High = append(s.High, 'x')
	})
	expectViolation(t, tr, "chain gap")
}

// TestVerifyDetectsStaleCachedSize: a mutator that forgets to maintain
// node.raw is a bug every Verify call in the suite must trip over.
func TestVerifyDetectsStaleCachedSize(t *testing.T) {
	tr := buildVerifyTree(t)
	withNode(t, tr, 1, 0, func(n *node) {
		n.c().Recs.Set(0, append(bytes.Clone(n.c().Recs.Val(0)), 'x'))
	})
	expectViolation(t, tr, "cached size")
}

// TestVerifyDetectsStaleKeyHeads: a mutator that forgets a slot's key head
// leaves every key in place and searches of the node wrong. Verify searches
// every key of every node, which runs on the heads in a bytewise tree, and
// names the node, an index node's and a leaf's alike; a custom comparator
// never searches the heads, so there it finds nothing.
func TestVerifyDetectsStaleKeyHeads(t *testing.T) {
	var id page.PageID
	stale := func(n *node) {
		id = n.id
		// Copy-on-write, as every edit of an index node.
		s := n.edit()
		slots, _ := slotWords(&s.Recs)
		setSlotWord(&s.Recs, len(slots)-1, slots[len(slots)-1]+1<<32)
		n.install(s)
	}
	for lvl := range uint8(2) {
		tr := buildVerifyTree(t)
		withNode(t, tr, 0, lvl, stale)
		expectViolation(t, tr, fmt.Sprintf("node %d key heads stale", id))
	}

	custom := newTestTree(t, Options{PageSize: 512, Compare: func(a, b []byte) int { return bytes.Compare(a, b) }})
	for i := 0; i < 600; i++ {
		custom.Put(key(i), valb(i))
	}
	custom.DrainTodo()
	withNode(t, custom, 0, 1, stale)
	if err := custom.Verify(); err != nil {
		t.Fatalf("custom-comparator tree: %v", err)
	}
}

func TestVerifyDetectsWrongIndexTerm(t *testing.T) {
	tr := buildVerifyTree(t)
	if tr.Height() < 1 {
		t.Skip("tree too small")
	}
	withNode(t, tr, 0, 1, func(n *node) {
		s := n.edit()
		if s.Recs.Len() < 2 {
			t.Fatalf("index node %d has %d terms", n.id, s.Recs.Len())
		}
		k, child := append(bytes.Clone(s.Recs.Key(1)), 'z'), s.Recs.Child(1)
		s.Recs.Delete(1)
		s.Recs.InsertChild(1, k, child)
		s.raw = s.countRaw()
		n.install(s)
	})
	// Either the child-low/term mismatch or the chain invariant trips.
	if err := tr.Verify(); err == nil {
		t.Fatal("wrong index term not detected")
	}
}

func TestVerifyDetectsMismatchedVals(t *testing.T) {
	tr := buildVerifyTree(t)
	withNode(t, tr, 0, 0, func(n *node) {
		n.c().Vals = [][]byte{[]byte("stray")}
	})
	expectViolation(t, tr, "outside its records")
}

// TestVerifyDetectsIndexEntriesOutsideRecords: a resident index node holds
// its entries in Recs only; Keys and Children are encoder input, and one
// left on a node is a copy no search reads.
func TestVerifyDetectsIndexEntriesOutsideRecords(t *testing.T) {
	for name, set := range map[string]func(s *state){
		"keys":     func(s *state) { s.Keys = [][]byte{s.Low} },
		"children": func(s *state) { s.Children = []page.PageID{s.Recs.Child(0)} },
	} {
		t.Run(name, func(t *testing.T) {
			tr := buildVerifyTree(t)
			withNode(t, tr, 0, 1, func(n *node) {
				s := n.edit()
				set(s)
				n.install(s)
			})
			expectViolation(t, tr, "outside its records")
		})
	}
}

func TestNodeSnapshotAndLevelNodes(t *testing.T) {
	tr := buildVerifyTree(t)
	leaves, err := tr.LevelNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) < 2 {
		t.Fatalf("only %d leaves", len(leaves))
	}
	info, err := tr.NodeSnapshot(leaves[0])
	if err != nil {
		t.Fatal(err)
	}
	if info.Level != 0 || len(info.Low) != 0 {
		t.Fatalf("leftmost leaf snapshot: %+v", info)
	}
	if info.Size <= 0 || info.Size > 512 {
		t.Fatalf("size = %d", info.Size)
	}
	if _, err := tr.LevelNodes(9); err == nil {
		t.Fatal("LevelNodes above root succeeded")
	}
	if tr.RootID() == 0 {
		t.Fatal("zero root")
	}
}

func TestNodeStringForms(t *testing.T) {
	n := newNode(7, page.Content{Kind: page.Leaf, Low: []byte("a")})
	if s := n.String(); !strings.Contains(s, "node 7") {
		t.Fatalf("node.String() = %q", s)
	}
	if highString(nil) != "+inf" {
		t.Fatal("highString(nil)")
	}
}

// TestMergedSizeIsExact: the O(1) fit check of a consolidation — from the two
// nodes' cached sizes — equals the size of the merged content built for real,
// including when the merge shortens the fence prefix the keys are stored
// without.
func TestMergedSizeIsExact(t *testing.T) {
	tr := newTestTree(t, Options{})
	for _, tc := range []struct {
		kind                 page.Kind
		low, mid, high       string
		leftKeys, victimKeys []string
	}{
		{page.Leaf, "", "m", "", []string{"a", "b"}, []string{"m", "n"}},
		{page.Leaf, "key-10", "key-15", "key-20", []string{"key-10", "key-12"}, []string{"key-15"}},
		{page.Index, "key-100", "key-150", "key-190", []string{"key-100", "key-120"}, []string{"key-150", "key-170"}},
		{page.Index, "key-100", "key-150", "kez", []string{"key-100", "key-120"}, []string{"key-150", "key-170"}}, // prefix shrinks
		{page.Index, "key-100", "key-150", "", []string{"key-100"}, []string{"key-150"}},                          // prefix vanishes
	} {
		build := func(low, high string, keys []string) *node {
			c := page.Content{Kind: tc.kind, Low: []byte(low), Compress: true}
			if high != "" {
				c.High = []byte(high)
			}
			for i, k := range keys {
				if tc.kind == page.Leaf {
					c.Recs.Insert(i, []byte(k), valb(i))
				} else {
					c.Keys = append(c.Keys, []byte(k))
					c.Children = append(c.Children, page.PageID(i+1))
				}
			}
			return newNode(1, c)
		}
		left, victim := build(tc.low, tc.mid, tc.leftKeys), build(tc.mid, tc.high, tc.victimKeys)
		merged := build(tc.low, tc.high, append(append([]string(nil), tc.leftKeys...), tc.victimKeys...))
		if got, want := tr.mergedSize(left, victim), merged.c().Size(); got != want {
			t.Errorf("%v [%q,%q)+[%q,%q): mergedSize = %d, merged content is %d", tc.kind, tc.low, tc.mid, tc.mid, tc.high, got, want)
		}
	}
}
