package main

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"sync/atomic"

	"blinktree"
)

// Record shape shared by every workload: 16-byte big-endian key, 100-byte
// value derived from the key (and, for transactional writes, a version), so
// every reply can be checked without remembering what was stored.
const (
	keyLen    = 16
	valLen    = 100
	userBytes = keyLen + valLen

	scanLen = 100
	// edgeGuard keeps churn reads this far from the window's moving edges,
	// so a key being inserted or deleted by the other client is never read.
	edgeGuard = 10000
	txnWrites = 4
	clients   = 2
	// sampleCached times every 16th call of emb.read.cached: the clock pair
	// would otherwise be about a tenth of a ~1 µs call.
	sampleCached = 16
)

// workload is one traffic mix. The names are cited by later issues; the why
// strings are copied into BENCHMARK.json (the test lints that they match).
type workload struct {
	name   string
	why    string
	keys   uint64 // dataset size at scale 1
	net    bool   // driven through a blinkd child over TCP
	kind   workKind
	sample int // time every sample-th request
	setups int // set-ups per run; setup_s is their median
	// combining is Options.Combining of the embedded tree; see the note on
	// emb.churn.uncached below.
	combining blinktree.FeatureMode
}

type workKind uint8

const (
	kindRead workKind = iota
	kindChurn
	kindTxn
)

var workloads = []workload{
	{
		name: "emb.read.cached", kind: kindRead, keys: 100_000, sample: sampleCached, setups: 5,
		why: "Tree.Get uniform over 100k keys (3.6k pages, fits the 4096-frame pool): all time is core descent, latch and buffer hit path; page, storage, wal, server, resp do nothing",
	},
	{
		// Hot-leaf combining is off here, and only here, because of an engine
		// defect this workload found (README, "Findings"): with both clients
		// deleting at the left edge, combining's latch-free descent can fetch a
		// just-deleted leaf's page id in the instant a split at the right edge
		// has re-allocated it but not yet inserted it into the pool, and the
		// split's Put then fails ("buffer: Insert of resident page"), about
		// once per 9 M requests. Remove this line when the engine is fixed.
		combining: blinktree.FeatureOff,
		name:      "emb.churn.uncached", kind: kindChurn, keys: 2_000_000, sample: 1, setups: 3,
		why: "sliding 2M-key window (72k pages, 17x the pool), 40% Get 25% Put 25% Delete 10% Scan: the only workload with splits, node deletion, page decode, storage reads and write-backs",
	},
	{
		name: "net.read.cached", kind: kindRead, keys: 100_000, net: true, sample: 1, setups: 5,
		why: "blinkd child, GET uniform over 100k keys at pipeline depth 1: resp, server and socket are most of the op, tree work is the cached path, so a core change should be nearly invisible",
	},
	{
		name: "net.txn.durable", kind: kindTxn, keys: 100_000, net: true, sample: 1, setups: 5,
		why: "blinkd -durability group, one flush of BEGIN 4xSET COMMIT per request: wal append, group-commit park, device force and the lock manager do the work; the only workload whose ack waits on fsync",
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func putKey(dst []byte, id uint64) {
	binary.BigEndian.PutUint64(dst[:8], 0)
	binary.BigEndian.PutUint64(dst[8:], id)
}

func keyID(key []byte) uint64 { return binary.BigEndian.Uint64(key[8:]) }

// putValue fills dst (valLen bytes) with the value of (id, ver): a
// splitmix64 stream, so neighbouring keys share no bytes.
func putValue(dst []byte, id, ver uint64) {
	x := id*0x9E3779B97F4A7C15 ^ ver*0xD1B54A32D192ED03
	var w [8]byte
	for i := 0; i < valLen; i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(w[:], z^z>>31)
		copy(dst[i:], w[:])
	}
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
	opScan
	opTxn
)

// op is one request. id is the key (first key of a scan); ids and ver are
// the keys and version of a transaction's writes.
type op struct {
	kind opKind
	id   uint64
	ids  [txnWrites]uint64
	ver  uint64
}

// window is the churn workload's live key range [head, tail), shared by the
// clients: a Put takes the next id past tail, a Delete the id at head.
type window struct {
	head, tail atomic.Uint64
}

// gen produces one client's request stream. Streams derive from the run
// seed and the client index only, never from timing.
type gen struct {
	w      *workload
	rng    *rand.Rand
	keys   uint64
	win    *window
	client uint64
	ver    uint64
}

func newGen(w *workload, seed uint64, client int, keys uint64, win *window) *gen {
	return &gen{
		w:      w,
		rng:    rand.New(rand.NewPCG(seed, uint64(client)+1)),
		keys:   keys,
		win:    win,
		client: uint64(client),
	}
}

func (g *gen) next(o *op) {
	switch g.w.kind {
	case kindRead:
		o.kind, o.id = opGet, g.rng.Uint64N(g.keys)
	case kindTxn:
		// Keys are partitioned by connection (id mod clients), so two
		// transactions never conflict and none is ever a deadlock victim.
		g.ver++
		o.kind, o.ver = opTxn, g.ver
		for i := 0; i < len(o.ids); {
			id := g.rng.Uint64N(g.keys/clients)*clients + g.client
			if !slices.Contains(o.ids[:i], id) {
				o.ids[i] = id
				i++
			}
		}
	case kindChurn:
		switch p := g.rng.IntN(100); {
		case p < 40:
			o.kind, o.id = opGet, g.safe(1)
		case p < 65:
			o.kind, o.id = opPut, g.win.tail.Add(1)-1
		case p < 90:
			o.kind, o.id = opDelete, g.win.head.Add(1)-1
		default:
			o.kind, o.id = opScan, g.safe(scanLen)
		}
	}
}

// safe returns a uniform id such that [id, id+span) lies inside the live
// window at least guard keys from either edge.
func (g *gen) safe(span uint64) uint64 {
	guard := uint64(edgeGuard)
	if g.keys < 8*guard {
		guard = g.keys / 8
	}
	lo := g.win.head.Load() + guard
	hi := g.win.tail.Load() - guard - span
	return lo + g.rng.Uint64N(hi-lo)
}
