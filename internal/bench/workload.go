// Package bench generates workloads and runs the experiments that
// regenerate the paper's figures and quantitative claims (the experiment
// index lives in DESIGN.md; results are recorded in EXPERIMENTS.md).
package bench

import (
	"fmt"
	"math/rand"
	"strconv"
)

// OpKind is one workload operation type.
type OpKind uint8

// Workload operation kinds.
const (
	// OpInsert inserts or overwrites a record.
	OpInsert OpKind = iota
	// OpSearch reads a record.
	OpSearch
	// OpDelete removes a record.
	OpDelete
	// OpScan reads a short key range.
	OpScan
	// OpModify is a delete immediately followed by an insert of a related
	// key (an indexed-field update, §1.3 / [5]).
	OpModify
)

// Mix is an operation mix in percent; fields must sum to 100.
type Mix struct {
	Insert, Search, Delete, Scan, Modify int
}

func (m Mix) total() int { return m.Insert + m.Search + m.Delete + m.Scan + m.Modify }

// String renders e.g. "i50/s30/d20".
func (m Mix) String() string {
	s := ""
	add := func(tag string, v int) {
		if v > 0 {
			if s != "" {
				s += "/"
			}
			s += fmt.Sprintf("%s%d", tag, v)
		}
	}
	add("i", m.Insert)
	add("s", m.Search)
	add("d", m.Delete)
	add("r", m.Scan)
	add("m", m.Modify)
	return s
}

// Dist selects the key popularity distribution.
type Dist uint8

// Key distributions.
const (
	// Uniform draws keys uniformly from the key space.
	Uniform Dist = iota
	// Zipf draws keys with a skewed (Zipfian) distribution; hot keys
	// model the paper's "skewed distribution" delete concern (§1.3).
	Zipf
	// Sequential walks the key space in order (purge patterns).
	Sequential
	// Hotspot sends HotFrac of the draws to a fixed hot set of HotKeys
	// contiguous keys at the bottom of the key space, the rest uniformly
	// over the whole space — a sharper contention shape than Zipf.
	Hotspot
	// MovingHotspot is Hotspot with a drifting hot set: every MovePeriod
	// draws the hot window shifts right by its own width (wrapping), so
	// cached right answers go stale (hot leaves cool, new ones heat up).
	MovingHotspot
	// SeqAppend emits strictly increasing key indexes past the preloaded
	// key space (SeqOffset + n*SeqStride), modelling a log-tail /
	// time-ordered-ID append load that always lands on the rightmost leaf.
	SeqAppend
)

func (d Dist) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	case Sequential:
		return "sequential"
	case Hotspot:
		return "hotspot"
	case MovingHotspot:
		return "moving-hotspot"
	case SeqAppend:
		return "seq-append"
	default:
		return "dist?"
	}
}

// ParseDist parses a distribution name as rendered by Dist.String
// (uniform, zipf, sequential, hotspot, moving-hotspot, seq-append).
func ParseDist(s string) (Dist, error) {
	for d := Uniform; d <= SeqAppend; d++ {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown distribution %q (uniform, zipf, sequential, hotspot, moving-hotspot, seq-append)", s)
}

// Spec describes a workload.
type Spec struct {
	// KeySpace is the number of distinct keys.
	KeySpace int
	// Preload is the number of records inserted before measurement.
	Preload int
	// Ops is the number of measured operations (across all goroutines).
	Ops int
	// Mix is the operation mix.
	Mix Mix
	// Dist is the key distribution; ZipfS is the skew (>1; default 1.2).
	Dist  Dist
	ZipfS float64
	// HotFrac is the fraction of Hotspot/MovingHotspot draws that hit the
	// hot set (default 0.9); HotKeys is the hot-set size in keys (default
	// KeySpace/100, minimum 1).
	HotFrac float64
	HotKeys int
	// MovePeriod is the number of draws between MovingHotspot window shifts
	// (default 1000).
	MovePeriod int
	// SeqStride and SeqOffset shape SeqAppend: the n'th draw is key index
	// KeySpace + SeqOffset + n*SeqStride (stride default 1). The runner
	// gives each worker offset=workerID, stride=goroutines so concurrent
	// workers interleave distinct, globally increasing keys.
	SeqStride int
	SeqOffset int
	// Seed is the base RNG seed; worker g derives its own as Seed+g+1, so
	// runs are reproducible yet workers draw independent streams.
	Seed int64
	// ValueSize is the record value length (default 24).
	ValueSize int
	// ScanLen is the number of records per OpScan (default 20).
	ScanLen int
}

func (s Spec) withDefaults() Spec {
	if s.KeySpace == 0 {
		s.KeySpace = 100_000
	}
	if s.ValueSize == 0 {
		s.ValueSize = 24
	}
	if s.ScanLen == 0 {
		s.ScanLen = 20
	}
	if s.ZipfS == 0 {
		s.ZipfS = 1.2
	}
	if s.HotFrac == 0 {
		s.HotFrac = 0.9
	}
	if s.HotKeys == 0 {
		s.HotKeys = s.KeySpace / 100
		if s.HotKeys < 1 {
			s.HotKeys = 1
		}
	}
	if s.MovePeriod == 0 {
		s.MovePeriod = 1000
	}
	if s.SeqStride == 0 {
		s.SeqStride = 1
	}
	return s
}

// Key renders the i'th key of the key space. Keys are fixed-width so
// ordering matches integer order.
func Key(i int) []byte { return []byte(fmt.Sprintf("user%010d", i)) }

// AppendKey appends Key(i)'s bytes to dst without fmt, so a caller that
// reuses dst makes no allocation.
func AppendKey(dst []byte, i int) []byte {
	var b [20]byte
	sign, digits := []byte(nil), strconv.AppendInt(b[:0], int64(i), 10)
	if i < 0 {
		sign, digits = digits[:1], digits[1:]
	}
	dst = append(append(dst, "user"...), sign...)
	for w := len(sign) + len(digits); w < 10; w++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// Op is one generated operation.
type Op struct {
	Kind OpKind
	K    int // key index
}

// Gen is a per-goroutine deterministic operation generator.
//
// A Gen is NOT safe for concurrent use: NextKey and Next mutate the
// generator's RNG and sequence state without synchronization. Give each
// worker goroutine its own Gen with a derived seed (the runner uses
// Spec.Seed + workerID + 1); sharing one Gen across goroutines both races
// and destroys reproducibility.
type Gen struct {
	spec  Spec
	rng   *rand.Rand
	zipf  *rand.Zipf
	seq   int
	draws int
	val   []byte
}

// NewGen returns a generator for spec with the given seed.
func NewGen(spec Spec, seed int64) *Gen {
	spec = spec.withDefaults()
	g := &Gen{
		spec: spec,
		rng:  rand.New(rand.NewSource(seed)),
		val:  make([]byte, spec.ValueSize),
	}
	if spec.Dist == Zipf {
		g.zipf = rand.NewZipf(g.rng, spec.ZipfS, 1, uint64(spec.KeySpace-1))
	}
	for i := range g.val {
		g.val[i] = byte('a' + i%26)
	}
	return g
}

// NextKey draws a key index from the distribution.
func (g *Gen) NextKey() int {
	g.draws++
	switch g.spec.Dist {
	case Zipf:
		return int(g.zipf.Uint64())
	case Sequential:
		k := g.seq % g.spec.KeySpace
		g.seq++
		return k
	case Hotspot:
		if g.rng.Float64() < g.spec.HotFrac {
			return g.rng.Intn(g.spec.HotKeys)
		}
		return g.rng.Intn(g.spec.KeySpace)
	case MovingHotspot:
		if g.rng.Float64() < g.spec.HotFrac {
			window := (g.draws - 1) / g.spec.MovePeriod
			start := (window * g.spec.HotKeys) % g.spec.KeySpace
			return (start + g.rng.Intn(g.spec.HotKeys)) % g.spec.KeySpace
		}
		return g.rng.Intn(g.spec.KeySpace)
	case SeqAppend:
		k := g.spec.KeySpace + g.spec.SeqOffset + g.seq*g.spec.SeqStride
		g.seq++
		return k
	default:
		return g.rng.Intn(g.spec.KeySpace)
	}
}

// Next draws the next operation.
func (g *Gen) Next() Op {
	m := g.spec.Mix
	r := g.rng.Intn(m.total())
	k := g.NextKey()
	switch {
	case r < m.Insert:
		return Op{Kind: OpInsert, K: k}
	case r < m.Insert+m.Search:
		return Op{Kind: OpSearch, K: k}
	case r < m.Insert+m.Search+m.Delete:
		return Op{Kind: OpDelete, K: k}
	case r < m.Insert+m.Search+m.Delete+m.Scan:
		return Op{Kind: OpScan, K: k}
	default:
		return Op{Kind: OpModify, K: k}
	}
}

// Value returns the (shared, read-only) value payload.
func (g *Gen) Value() []byte { return g.val }

// ScanLen returns the configured range-scan length.
func (g *Gen) ScanLen() int { return g.spec.ScanLen }
