package core

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"blinktree/internal/page"
)

// bytewiseTree is enough of a Tree for the search helpers: the default order.
var bytewiseTree = &Tree{cmp: bytes.Compare, bytewise: true}

// indexOver returns the state of an index node whose keys are keys (sorted,
// duplicate-free), with its heads.
func indexOver(keys [][]byte) *state {
	keys = append([][]byte{}, keys...)
	return newNode(1, page.Content{Kind: page.Index, Keys: keys, Children: make([]page.PageID, len(keys))}).c()
}

// checkHeadsSearch compares every index-node search that runs on key heads
// — search, and childIn under both bounds — with sort.Search under
// bytes.Compare, for one sorted, duplicate-free key set and each probe.
func checkHeadsSearch(t *testing.T, keys [][]byte, probes ...[]byte) {
	t.Helper()
	s := indexOver(keys)
	for _, probe := range probes {
		checkHeadsProbe(t, keys, s, probe)
	}
}

func checkHeadsProbe(t *testing.T, keys [][]byte, s *state, probe []byte) {
	t.Helper()
	n := len(keys)
	lb := sort.Search(n, func(i int) bool { return bytes.Compare(keys[i], probe) >= 0 })
	found := lb < n && bytes.Equal(keys[lb], probe)
	if i, ok := bytewiseTree.search(&s.Recs, probe); i != lb || ok != found {
		t.Fatalf("search(%q) in %q = %d, %v; sort.Search says %d, %v", probe, keys, i, ok, lb, found)
	}
	ub := sort.Search(n, func(i int) bool { return bytes.Compare(keys[i], probe) > 0 })
	if ci := (&traverseOpts{key: probe}).childIn(bytewiseTree, s); ci != ub-1 {
		t.Fatalf("covering childIn(%q) in %q = %d, want %d", probe, keys, ci, ub-1)
	}
	// Under the below bound a nil key is +inf, checked next.
	if ci := (&traverseOpts{key: probe, below: true}).childIn(bytewiseTree, s); probe != nil && ci != lb-1 {
		t.Fatalf("below childIn(%q) in %q = %d, want %d", probe, keys, ci, lb-1)
	}
	if ci := (&traverseOpts{below: true}).childIn(bytewiseTree, s); ci != n-1 {
		t.Fatalf("below childIn(+inf) in %q = %d, want %d", keys, ci, n-1)
	}
}

// sortedUnique sorts keys bytewise and drops duplicates.
func sortedUnique(keys [][]byte) [][]byte {
	slices.SortFunc(keys, bytes.Compare)
	return slices.CompactFunc(keys, bytes.Equal)
}

// randomKeySet draws a node's worth of keys over a small alphabet, so that
// prefixes of other keys, trailing zero bytes and equal heads are common,
// behind a shared prefix that is sometimes longer than 8 bytes; keys[0] is
// sometimes empty, as an index node's low fence on the leftmost spine is.
func randomKeySet(rng *rand.Rand) [][]byte {
	alphabet := []byte{0x00, 0x01, 'a', 'b', 0xff}
	prefix := make([]byte, rng.Intn(20))
	for i := range prefix {
		prefix[i] = alphabet[rng.Intn(len(alphabet))]
	}
	keys := make([][]byte, rng.Intn(40))
	for i := range keys {
		k := append([]byte(nil), prefix[:rng.Intn(len(prefix)+1)]...)
		if rng.Intn(4) > 0 {
			k = append(k[:0], prefix...)
		}
		for j := rng.Intn(12); j > 0; j-- {
			k = append(k, alphabet[rng.Intn(len(alphabet))])
		}
		keys[i] = k
	}
	if rng.Intn(2) == 0 {
		keys = append(keys, []byte{})
	}
	return sortedUnique(keys)
}

// probesFor returns every key, each key with a byte added or dropped, each
// prefix of the first shared bytes (keys shorter than the prefix), and the
// empty key.
func probesFor(rng *rand.Rand, keys [][]byte) [][]byte {
	probes := [][]byte{{}, {0xff, 0xff}}
	for _, k := range keys {
		probes = append(probes, k, append(append([]byte(nil), k...), 0x00), append(append([]byte(nil), k...), 'a'))
		if len(k) > 0 {
			probes = append(probes, k[:len(k)-1], k[:rng.Intn(len(k))])
			bumped := append([]byte(nil), k...)
			bumped[len(k)-1]++
			probes = append(probes, bumped)
		}
	}
	return probes
}

func TestKeyHeadsMatchSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fixed := [][][]byte{
		nil,
		{{}},
		{{}, []byte("a")},
		{{}, []byte("ab"), []byte("ab\x00")},
		{[]byte("ab"), []byte("ab\x00"), []byte("ab\x00\x00"), []byte("ab\x01")},
		{{}, []byte("0123456789abc"), []byte("0123456789abd"), []byte("0123456789abd\x00")},
		{{}, {0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, {0, 0, 0, 0, 0, 0, 0, 0, 0, 2}, {0, 0, 0, 0, 0, 0, 0, 0, 1, 0}},
	}
	for _, keys := range fixed {
		checkHeadsSearch(t, keys, probesFor(rng, keys)...)
	}
	for round := 0; round < 2000; round++ {
		keys := randomKeySet(rng)
		checkHeadsSearch(t, keys, probesFor(rng, keys)...)
	}
}

// keysOf returns views of n's entry keys.
func keysOf(n *node) [][]byte {
	r := &n.c().Recs
	keys := make([][]byte, r.Len())
	for i := range keys {
		keys[i] = r.Key(i)
	}
	return keys
}

// TestKeyHeadsMaintenanceMatchesRebuild drives a leaf and an index node
// through random inserts and removes, at the edges as churn does and in the
// middle, and checks after every step that the index node holds the leaf's
// keys and that both nodes' maintained heads search as a node rebuilt from
// those keys does: as sort.Search.
func TestKeyHeadsMaintenanceMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 200; round++ {
		pool := randomKeySet(rng)
		if len(pool) == 0 {
			continue
		}
		leaf := newNode(1, page.Content{Kind: page.Leaf})
		index := newNode(2, page.Content{Kind: page.Index, Level: 1, Keys: [][]byte{}, Children: []page.PageID{}})
		for step := 0; step < 100; step++ {
			k := pool[rng.Intn(len(pool))]
			if i, found := bytewiseTree.search(&leaf.c().Recs, k); !found && rng.Intn(3) > 0 {
				leaf.insertLeafAt(i, k, nil)
				index.insertIndexTerm(bytewiseTree, k, page.PageID(step+1))
			} else if n := leaf.c().Recs.Len(); n > 0 {
				i := []int{0, n - 1, rng.Intn(n)}[rng.Intn(3)]
				leaf.removeLeafAt(i)
				index.removeIndexTermAt(i)
			}
			keys := keysOf(leaf)
			if !slices.EqualFunc(keys, keysOf(index), bytes.Equal) {
				t.Fatalf("round %d step %d: index keys %q, leaf keys %q", round, step, keysOf(index), keys)
			}
			for _, probe := range probesFor(rng, pool) {
				checkHeadsProbe(t, keys, index.c(), probe)
				lb := sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], probe) >= 0 })
				found := lb < len(keys) && bytes.Equal(keys[lb], probe)
				if i, ok := bytewiseTree.search(&leaf.c().Recs, probe); i != lb || ok != found {
					t.Fatalf("round %d step %d: leaf search(%q) in %q = %d, %v; want %d, %v", round, step, probe, keys, i, ok, lb, found)
				}
			}
		}
	}
}
