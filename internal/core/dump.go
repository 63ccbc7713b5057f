package core

import (
	"fmt"
	"io"

	"blinktree/internal/page"
)

// NodeInfo is a read-only snapshot of one node, exposed for tools, tests
// and the figure experiments (which assert the exact structures of the
// paper's Figures 1–3).
type NodeInfo struct {
	ID       page.PageID
	Kind     page.Kind
	Level    uint8
	Low      []byte
	High     []byte // nil = +inf
	Right    page.PageID
	DD       uint64
	Epoch    uint64
	Keys     [][]byte
	Children []page.PageID
	Size     int
}

// RootID returns the current root page (quiescent use).
func (t *Tree) RootID() page.PageID {
	id, _ := t.readAnchor()
	return id
}

// NodeSnapshot returns a copy of one node's state (quiescent use).
func (t *Tree) NodeSnapshot(id page.PageID) (NodeInfo, error) {
	n, err := t.fetch(id)
	if err != nil {
		return NodeInfo{}, err
	}
	defer t.unpin(n)
	s := n.c()
	info := NodeInfo{
		ID: n.id, Kind: s.Kind, Level: s.Level,
		Low: append([]byte(nil), s.Low...), Right: s.Right,
		DD: s.DD, Epoch: s.Epoch, Size: n.size(),
	}
	if s.High != nil {
		info.High = append([]byte(nil), s.High...)
	}
	for i := range s.Recs.Len() {
		info.Keys = append(info.Keys, append([]byte(nil), s.Recs.Key(i)...))
		if s.Kind == page.Index {
			info.Children = append(info.Children, s.Recs.Child(i))
		}
	}
	return info, nil
}

// LevelNodes returns the node IDs of one level, leftmost first (quiescent).
func (t *Tree) LevelNodes(lvl uint8) ([]page.PageID, error) {
	id, rootLvl := t.readAnchor()
	if lvl > rootLvl {
		return nil, fmt.Errorf("blinktree: level %d above root level %d", lvl, rootLvl)
	}
	// Descend to the leftmost node of the level.
	for {
		n, err := t.fetch(id)
		if err != nil {
			return nil, err
		}
		if n.level() == lvl {
			t.unpin(n)
			break
		}
		next := n.c().Recs.Child(0)
		t.unpin(n)
		id = next
	}
	var ids []page.PageID
	for id != 0 {
		ids = append(ids, id)
		n, err := t.fetch(id)
		if err != nil {
			return nil, err
		}
		next := n.c().Right
		t.unpin(n)
		id = next
	}
	return ids, nil
}

// Dump writes a human-readable rendering of the whole tree to w, one level
// per section, leftmost to rightmost (quiescent use). The blinkdump tool
// and the figures experiment use it.
func (t *Tree) Dump(w io.Writer) error {
	_, rootLvl := t.readAnchor()
	fmt.Fprintf(w, "root=%d height=%d D_X=%d\n", t.RootID(), rootLvl, t.DX())
	for lvl := int(rootLvl); lvl >= 0; lvl-- {
		ids, err := t.LevelNodes(uint8(lvl))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "level %d:\n", lvl)
		for _, id := range ids {
			info, err := t.NodeSnapshot(id)
			if err != nil {
				return err
			}
			high := "+inf"
			if info.High != nil {
				high = fmt.Sprintf("%q", info.High)
			}
			fmt.Fprintf(w, "  node %-4d [%q, %s) right=%-4d keys=%-4d size=%-5d",
				info.ID, info.Low, high, info.Right, len(info.Keys), info.Size)
			if info.Level == 1 {
				fmt.Fprintf(w, " D_D=%d", info.DD)
			}
			if info.Kind == page.Index {
				fmt.Fprintf(w, " children=%v", info.Children)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
