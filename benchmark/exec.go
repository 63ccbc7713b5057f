package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"

	"blinktree/internal/resp"
)

// executor runs one request against the system under test and checks the
// reply against the key-derived expectation. An error is a failed request.
type executor interface {
	exec(o *op) error
	// trace makes the executor record spans into tr (nil stops it).
	trace(tr *tracer)
	close() error
}

// kv is the part of the tree API the embedded workloads drive; both
// *blinktree.Tree and *core.Tree (the traced stack) provide it.
type kv interface {
	Get(key []byte) ([]byte, error)
	Put(key, val []byte) error
	Delete(key []byte) error
	Scan(start, end []byte, fn func(key, val []byte) bool) error
}

// txn is what the embedded replay of net.txn.durable needs of a transaction.
type txn interface {
	Put(key, val []byte) error
	Commit() error
}

var errWrongValue = errors.New("reply does not match the key-derived value")

// embExec calls the tree in-process. With a tracer it records, per request,
// an op span and a tree.call span around the API call itself.
type embExec struct {
	kv    kv
	begin func() (txn, error) // nil unless the stream has transactions
	tr    *tracer
	req   int32

	callID    int32
	key, end  [keyLen]byte
	val, want [valLen]byte
}

func (e *embExec) close() error     { return nil }
func (e *embExec) trace(tr *tracer) { e.tr = tr }

// returned closes tree.call: the API call is back, checking is op self time.
func (e *embExec) returned() {
	e.tr.parentDevices(backgroundID)
	e.tr.end(e.callID)
}

func (e *embExec) exec(o *op) error {
	e.req++
	opID := e.tr.begin(spOp, -1, e.req)
	defer e.tr.end(opID)
	e.callID = e.tr.begin(spTreeCall, opID, e.req)
	e.tr.parentDevices(e.callID)
	putKey(e.key[:], o.id)
	switch o.kind {
	case opGet:
		v, err := e.kv.Get(e.key[:])
		e.returned()
		if err != nil {
			return err
		}
		putValue(e.want[:], o.id, 0)
		if !bytes.Equal(v, e.want[:]) {
			return errWrongValue
		}
	case opPut:
		putValue(e.val[:], o.id, 0)
		err := e.kv.Put(e.key[:], e.val[:])
		e.returned()
		return err
	case opDelete:
		err := e.kv.Delete(e.key[:])
		e.returned()
		return err
	case opScan:
		putKey(e.end[:], o.id+scanLen)
		next, bad := o.id, false
		err := e.kv.Scan(e.key[:], e.end[:], func(k, v []byte) bool {
			putValue(e.want[:], next, 0)
			if keyID(k) != next || !bytes.Equal(v, e.want[:]) {
				bad = true
			}
			next++
			return !bad
		})
		e.returned()
		if err != nil {
			return err
		}
		if bad || next != o.id+scanLen {
			return fmt.Errorf("scan from %d: wrong record at %d", o.id, next)
		}
	case opTxn:
		x, err := e.begin()
		for _, id := range o.ids {
			if err != nil {
				break
			}
			putKey(e.key[:], id)
			putValue(e.val[:], id, o.ver)
			err = x.Put(e.key[:], e.val[:])
		}
		if err == nil {
			err = x.Commit()
		}
		e.returned()
		return err
	}
	return nil
}

// countingConn counts socket reads: replies ÷ reads approximates how many
// replies the server packs into one flush, seen from outside the server.
type countingConn struct {
	net.Conn
	reads uint64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

// requestTimeout fails a request the server never answers.
const requestTimeout = 20 * time.Second

var (
	verbGet    = []byte("GET")
	verbSet    = []byte("SET")
	verbBegin  = []byte("BEGIN")
	verbCommit = []byte("COMMIT")
	verbPing   = []byte("PING")
)

// netExec is one pooled blinkd connection at pipeline depth 1: each request
// is one write and waits for its replies. With a tracer it records op →
// resp.encode, wire (write → first reply byte), resp.decode.
type netExec struct {
	conn   *countingConn
	br     *bufio.Reader
	out    []byte
	tr     *tracer
	req    int32
	opSpan int32

	replies uint64
	// acked is each written key's last acknowledged version; inflight is the
	// transaction sent but not yet acknowledged. The durability check after
	// the kill reads every acked key back.
	acked    map[uint64]uint64
	inflight *op

	key, want, val []byte
}

func dialExec(addr string) (*netExec, error) {
	c, err := net.DialTimeout("tcp", addr, requestTimeout)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	return &netExec{
		conn: cc, br: bufio.NewReaderSize(cc, 1<<16),
		acked: make(map[uint64]uint64),
		key:   make([]byte, keyLen), want: make([]byte, valLen), val: make([]byte, valLen),
	}, nil
}

func (e *netExec) close() error     { return e.conn.Close() }
func (e *netExec) trace(tr *tracer) { e.tr = tr }

// roundTrip sends e.out and returns after the n replies are decoded and
// checked. wire runs from the write until the first byte of the last reply
// (the replies before it are decoded on the way: they are what the client
// waits through), resp.decode is the decoding of the last reply.
func (e *netExec) roundTrip(n int, check func(r resp.Reply) error) error {
	wire := e.tr.begin(spWire, e.opSpan, e.req)
	err := e.conn.SetDeadline(time.Now().Add(requestTimeout))
	if err == nil {
		_, err = e.conn.Write(e.out)
	}
	// Every reply is read even after a bad one, so the connection stays in
	// step with the server for the next request.
	var first error
	for i := 0; i < n && err == nil; i++ {
		if i == n-1 {
			_, err = e.br.Peek(1)
			e.tr.end(wire)
			if err != nil {
				return err
			}
			defer e.tr.end(e.tr.begin(spRespDecode, e.opSpan, e.req))
		}
		var r resp.Reply
		if r, err = resp.ReadReply(e.br, 0); err != nil {
			break
		}
		e.replies++
		bad := r.Err()
		if bad == nil {
			bad = check(r)
		}
		if first == nil {
			first = bad
		}
	}
	if err != nil {
		e.tr.end(wire)
		return err
	}
	return first
}

func (e *netExec) exec(o *op) error {
	e.req++
	e.opSpan = e.tr.begin(spOp, -1, e.req)
	defer e.tr.end(e.opSpan)
	encode := e.tr.begin(spRespEncode, e.opSpan, e.req)
	switch o.kind {
	case opGet:
		putKey(e.key, o.id)
		e.out = resp.AppendCommand(e.out[:0], verbGet, e.key)
		e.tr.end(encode)
		return e.roundTrip(1, func(r resp.Reply) error {
			putValue(e.want, o.id, 0)
			if r.Null || !bytes.Equal(r.Bulk, e.want) {
				return errWrongValue
			}
			return nil
		})
	case opTxn:
		e.out = resp.AppendCommand(e.out[:0], verbBegin)
		for _, id := range o.ids {
			putKey(e.key, id)
			putValue(e.val, id, o.ver)
			e.out = resp.AppendCommand(e.out, verbSet, e.key, e.val)
		}
		e.out = resp.AppendCommand(e.out, verbCommit)
		e.tr.end(encode)
		sent := *o
		e.inflight = &sent
		err := e.roundTrip(txnWrites+2, func(r resp.Reply) error {
			if r.Kind != resp.KindSimple || r.Str != "OK" {
				return fmt.Errorf("unexpected reply %+v", r)
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, id := range o.ids {
			e.acked[id] = o.ver
		}
		e.inflight = nil
		return nil
	}
	return fmt.Errorf("request kind %d has no wire form", o.kind)
}

// ping round-trips one PING.
func (e *netExec) ping() error {
	e.out = resp.AppendCommand(e.out[:0], verbPing)
	return e.roundTrip(1, func(r resp.Reply) error {
		if r.Str != "PONG" {
			return fmt.Errorf("unexpected PING reply %+v", r)
		}
		return nil
	})
}

// get reads one key outside any workload (the durability read-back); a
// missing key reads as nil.
func (e *netExec) get(id uint64) (val []byte, err error) {
	putKey(e.key, id)
	e.out = resp.AppendCommand(e.out[:0], verbGet, e.key)
	err = e.roundTrip(1, func(r resp.Reply) error {
		val = r.Bulk
		return nil
	})
	return val, err
}
