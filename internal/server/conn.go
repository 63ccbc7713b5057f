package server

import (
	"bufio"
	"errors"
	"net"
	"slices"
	"strconv"
	"strings"
	"time"

	blinktree "blinktree"
	"blinktree/internal/resp"
)

// conn is one client session: a reader goroutine (serve) that parses and
// executes commands in arrival order, and a writer goroutine (writeLoop)
// that streams the queued replies. The bounded reply queue between them is
// both the pipelining window and the backpressure mechanism: when the
// client stops reading, the queue fills and the reader blocks, stalling
// only this connection.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	out chan []byte
	// txn is the session's open transaction, nil outside BEGIN..COMMIT/ABORT.
	// Only the reader goroutine touches it.
	txn *blinktree.Txn
	// idleAt is the read deadline serve last set (zero: none). Only the
	// reader goroutine touches it.
	idleAt  time.Time
	lastGet int // length of the last value a GET returned (reader only)
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		srv: s,
		nc:  nc,
		out: make(chan []byte, s.cfg.WriteQueue),
	}
	c.br = bufio.NewReaderSize(c, 1<<16)
	return c
}

// Read is the byte source of c.br. Shutdown interrupts blocked readers by
// moving the socket's read deadline into the past; a timeout that arrives
// before the deadline serve set is that kick. With a transaction open the
// kick is not for this connection (see Server.Shutdown): the deadline is
// restored and the read goes on, so the rest of a command already partly
// received is not lost either.
func (c *conn) Read(p []byte) (int, error) {
	for {
		n, err := c.nc.Read(p)
		if n > 0 || c.txn == nil || !isTimeout(err) {
			return n, err
		}
		if !c.idleAt.IsZero() && !time.Now().Before(c.idleAt) {
			return n, err // the idle timeout itself
		}
		c.nc.SetReadDeadline(c.idleAt)
	}
}

// serve is the reader side: the connection's command loop. It returns when
// the client disconnects, a protocol error poisons the stream, the idle
// timeout fires, or the server drains and nothing of this connection is in
// flight any more; any open transaction is aborted before the reply queue
// is closed and the writer flushes out.
func (c *conn) serve() {
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.writeLoop()
	}()

	for {
		// The deadline is set before the draining check, so that a kick
		// landing after the check is not overwritten.
		if c.srv.cfg.IdleTimeout > 0 {
			c.idleAt = time.Now().Add(c.srv.cfg.IdleTimeout)
			c.nc.SetReadDeadline(c.idleAt)
		}
		// In flight during a drain: commands already buffered, and an open
		// transaction up to its COMMIT/ABORT.
		if c.srv.draining() && c.br.Buffered() == 0 && c.txn == nil {
			break
		}
		args, err := resp.ReadCommand(c.br, c.srv.cfg.MaxBulk)
		if err != nil {
			if errors.Is(err, resp.ErrProto) {
				c.srv.stats.protoErrors.Add(1)
				c.send(resp.AppendError(nil, "PROTO", err.Error()))
			} else if isTimeout(err) && !c.srv.draining() {
				c.srv.stats.idleClosed.Add(1)
			}
			break
		}
		c.send(c.dispatch(args))
	}

	if c.txn != nil {
		// Disconnect (or drain) with a transaction open: roll it back so
		// its record locks never outlive the session.
		c.txn.Abort()
		c.txn = nil
		c.srv.stats.disconnectAborts.Add(1)
	}
	close(c.out)
	<-writerDone
	c.nc.Close()
}

// send queues one encoded reply for the writer, blocking when the queue is
// full (client-read backpressure).
func (c *conn) send(frame []byte) {
	depth := uint64(len(c.out) + 1)
	c.srv.stats.noteDepth(depth)
	c.out <- frame
}

// writeLoop is the writer side: it batches every reply available right now
// into the buffered writer and flushes once the queue momentarily empties,
// so a pipelined burst costs one syscall per drain, not one per reply.
func (c *conn) writeLoop() {
	bw := bufio.NewWriterSize(c.nc, 1<<16)
	// On a write error the peer is gone; keep draining the queue so the
	// reader never blocks on send, until it closes the channel.
	drain := func() {
		for range c.out {
		}
	}
	for frame := range c.out {
		for frame != nil {
			if _, err := bw.Write(frame); err != nil {
				drain()
				return
			}
			select {
			case next, ok := <-c.out:
				if !ok {
					bw.Flush()
					return
				}
				frame = next
			default:
				frame = nil
			}
		}
		if err := bw.Flush(); err != nil {
			drain()
			return
		}
	}
	bw.Flush()
}

// dispatch looks up and executes one command, returning the encoded reply.
func (c *conn) dispatch(args [][]byte) []byte {
	name := strings.ToUpper(string(args[0]))
	v, ok := verbs[name]
	if !ok {
		c.srv.stats.unknown.Add(1)
		return resp.AppendError(nil, "ERR", "unknown command '"+printable(args[0])+"'")
	}
	c.srv.stats.commands[v.idx].Add(1)
	if len(args) != v.arity {
		return resp.AppendError(nil, "ERR", "wrong number of arguments for '"+name+"'")
	}
	start := time.Now()
	reply := v.fn(c, args, nil)
	c.srv.stats.verbLatency[v.idx].Observe(time.Since(start))
	return reply
}

func (c *conn) cmdPing(_ [][]byte, dst []byte) []byte {
	return resp.AppendSimple(dst, "PONG")
}

func (c *conn) cmdGet(args [][]byte, dst []byte) []byte {
	// The value goes from its leaf straight into the reply buffer (sized by
	// this connection's last value), bulkRoom bytes past the reply's start;
	// AppendBulk writes the header there and slides the value down to it.
	const bulkRoom = len("$65535\r\n") + len("\r\n")
	at := len(dst)
	dst = slices.Grow(dst, bulkRoom+c.lastGet)[:at+bulkRoom]
	var err error
	if c.txn != nil {
		var val []byte
		val, err = c.txn.Get(args[1])
		dst = append(dst, val...)
	} else {
		dst, err = c.srv.tree.GetInto(dst, args[1])
	}
	if errors.Is(err, blinktree.ErrKeyNotFound) {
		return resp.AppendNull(dst[:at])
	}
	if err != nil {
		return c.opError(dst[:at], err)
	}
	c.lastGet = len(dst) - at - bulkRoom
	return resp.AppendBulk(dst[:at], dst[at+bulkRoom:])
}

func (c *conn) cmdSet(args [][]byte, dst []byte) []byte {
	var err error
	if c.txn != nil {
		err = c.txn.Put(args[1], args[2])
	} else {
		err = c.srv.tree.Put(args[1], args[2])
	}
	if err != nil {
		return c.opError(dst, err)
	}
	return resp.AppendSimple(dst, "OK")
}

func (c *conn) cmdDel(args [][]byte, dst []byte) []byte {
	var err error
	if c.txn != nil {
		err = c.txn.Delete(args[1])
	} else {
		err = c.srv.tree.Delete(args[1])
	}
	if errors.Is(err, blinktree.ErrKeyNotFound) {
		return resp.AppendInt(dst, 0)
	}
	if err != nil {
		return c.opError(dst, err)
	}
	return resp.AppendInt(dst, 1)
}

func (c *conn) cmdScan(args [][]byte, dst []byte) []byte {
	limit, err := strconv.Atoi(string(args[3]))
	if err != nil || limit < 1 {
		return resp.AppendError(dst, "ERR", "SCAN limit must be a positive integer")
	}
	if limit > c.srv.cfg.MaxScan {
		limit = c.srv.cfg.MaxScan
	}
	start := args[1]
	var end []byte
	if len(args[2]) > 0 {
		end = args[2]
	}
	// SCAN reads the live tree without record locks even inside a
	// transaction (PROTOCOL.md): cursors are latch-only by design.
	type kv struct{ k, v []byte }
	pairs := make([]kv, 0, min(limit, 64))
	scanErr := c.srv.tree.Scan(start, end, func(k, v []byte) bool {
		pairs = append(pairs, kv{k: append([]byte(nil), k...), v: append([]byte(nil), v...)})
		return len(pairs) < limit
	})
	if scanErr != nil {
		return c.opError(dst, scanErr)
	}
	dst = resp.AppendArrayHeader(dst, 2*len(pairs))
	for _, p := range pairs {
		dst = resp.AppendBulk(dst, p.k)
		dst = resp.AppendBulk(dst, p.v)
	}
	return dst
}

func (c *conn) cmdBegin(_ [][]byte, dst []byte) []byte {
	if c.txn != nil {
		return resp.AppendError(dst, "TXN", "transaction already open")
	}
	txn, err := c.srv.tree.Begin()
	if err != nil {
		return c.opError(dst, err)
	}
	c.txn = txn
	c.srv.stats.txnBegins.Add(1)
	return resp.AppendSimple(dst, "OK")
}

func (c *conn) cmdCommit(_ [][]byte, dst []byte) []byte {
	if c.txn == nil {
		return resp.AppendError(dst, "TXN", "no transaction open")
	}
	err := c.txn.Commit()
	c.txn = nil
	if err != nil {
		return c.opError(dst, err)
	}
	c.srv.stats.txnCommits.Add(1)
	return resp.AppendSimple(dst, "OK")
}

func (c *conn) cmdAbort(_ [][]byte, dst []byte) []byte {
	if c.txn == nil {
		return resp.AppendError(dst, "TXN", "no transaction open")
	}
	err := c.txn.Abort()
	c.txn = nil
	if err != nil {
		return c.opError(dst, err)
	}
	c.srv.stats.txnAborts.Add(1)
	return resp.AppendSimple(dst, "OK")
}

func (c *conn) cmdInfo(_ [][]byte, dst []byte) []byte {
	return resp.AppendBulk(dst, c.srv.info())
}

// opError maps a tree error onto the wire error codes of PROTOCOL.md.
// ErrTxnAborted and ErrTxnDone mean the underlying transaction is finished:
// the session's txn pointer is cleared so the client's next BEGIN works.
func (c *conn) opError(dst []byte, err error) []byte {
	switch {
	case errors.Is(err, blinktree.ErrTxnAborted):
		c.txn = nil
		c.srv.stats.txnAborts.Add(1)
		return resp.AppendError(dst, "ABORTED", "transaction rolled back ("+err.Error()+"); retry")
	case errors.Is(err, blinktree.ErrTxnDone):
		c.txn = nil
		return resp.AppendError(dst, "TXN", "transaction already finished")
	case errors.Is(err, blinktree.ErrClosed):
		return resp.AppendError(dst, "ERR", "server shutting down")
	case errorsIsAny(err, blinktree.ErrEmptyKey, blinktree.ErrEntryTooLarge):
		return resp.AppendError(dst, "ERR", err.Error())
	default:
		return resp.AppendError(dst, "ERR", err.Error())
	}
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// printable sanitizes client-supplied bytes for inclusion in an error
// message: non-graphic bytes become '?', length is capped.
func printable(b []byte) string {
	if len(b) > 32 {
		b = b[:32]
	}
	out := make([]byte, len(b))
	for i, c := range b {
		if c < 0x20 || c > 0x7e {
			c = '?'
		}
		out[i] = c
	}
	return string(out)
}
