package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"time"

	blinktree "blinktree"
	"blinktree/internal/resp"
)

const (
	// replyBuffer is the size of a connection's reply (and input) buffer.
	replyBuffer = 1 << 16
	// drainFlushTimeout bounds a socket write once the server drains: replies
	// in flight are delivered, but not to a client that has stopped reading.
	drainFlushTimeout = time.Second
	// lingerTimeout bounds how long a finished connection waits for its
	// client to close after the server has half-closed it (see linger).
	lingerTimeout = 500 * time.Millisecond
)

// conn is one client session, served by one goroutine (serve): it parses a
// command, executes it and encodes the reply straight into bw, in arrival
// order. bw is flushed at one point only — in Read, when the input buffer has
// run dry and the goroutine is about to block on the socket — so a pipelined
// burst leaves in one write and a lone request costs one read and one write.
// Backpressure is the socket's own: when the client stops reading, the flush
// blocks, and with it this connection's command stream and nothing else.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	// txn is the session's open transaction, nil outside BEGIN..COMMIT/ABORT.
	txn *blinktree.Txn
	// idleAt is the read deadline serve last set (zero: none).
	idleAt  time.Time
	lastGet int    // length of the last value a GET returned
	replies uint64 // replies encoded into bw since the last flush
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{srv: s, nc: nc}
	c.br = bufio.NewReaderSize(c, replyBuffer)
	c.bw = bufio.NewWriterSize(c, replyBuffer)
	return c
}

// Read is the byte source of c.br, which calls it only when it has no
// buffered input left: the one point where the replies encoded so far are
// flushed. With a transaction open Shutdown's kick is not for this connection
// (see Server.Shutdown): the deadline is restored and the read goes on, so
// the rest of a command already partly received is not lost either.
func (c *conn) Read(p []byte) (int, error) {
	if err := c.flush(); err != nil {
		return 0, err
	}
	for {
		n, err := c.nc.Read(p)
		if n > 0 || c.txn == nil || !kicked(err, c.idleAt) {
			return n, err
		}
		c.nc.SetReadDeadline(c.idleAt)
	}
}

// Write is the byte sink of c.bw. Every socket write carries a deadline — the
// idle timeout, or drainFlushTimeout once the server drains — so a client
// that has stopped reading cannot pin the session, and its transaction's
// record locks, for ever. A write that Shutdown's kick interrupts goes on
// under the drain's deadline: the replies in it are in flight.
func (c *conn) Write(p []byte) (n int, err error) {
	for {
		// As in serve: first the deadline, then the draining check.
		var at time.Time
		if c.srv.cfg.IdleTimeout > 0 {
			at = time.Now().Add(c.srv.cfg.IdleTimeout)
			c.nc.SetWriteDeadline(at)
		}
		if c.srv.draining() {
			at = time.Now().Add(drainFlushTimeout)
			c.nc.SetWriteDeadline(at)
		}
		var m int
		m, err = c.nc.Write(p[n:])
		n += m
		if !kicked(err, at) {
			return n, err
		}
	}
}

// kicked reports whether err is Shutdown's kick: Shutdown moves the socket's
// deadlines into the past, so a timeout that arrives before at, the deadline
// the connection set itself, is that kick.
func kicked(err error, at time.Time) bool {
	return isTimeout(err) && (at.IsZero() || time.Now().Before(at))
}

// flush sends the buffered replies, sampling how many leave together.
func (c *conn) flush() error {
	if c.replies > 0 {
		c.srv.stats.noteDepth(c.replies)
		c.replies = 0
	}
	return c.bw.Flush()
}

// reply hands bw one frame, encoded into its AvailableBuffer when it fit.
func (c *conn) reply(frame []byte) error {
	c.replies++
	_, err := c.bw.Write(frame)
	return err
}

// serve is the connection's command loop. It returns when the client
// disconnects, a protocol error poisons the stream, the idle timeout fires on
// a read or on a flush the client does not take, or the server drains and
// nothing of this connection is in flight any more; any open transaction is
// aborted before the last replies are flushed.
func (c *conn) serve() {
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
		if errors.Is(err, resp.ErrProto) {
			c.srv.stats.protoErrors.Add(1)
			c.reply(resp.AppendError(c.bw.AvailableBuffer(), "PROTO", err.Error()))
		} else if err == nil {
			err = c.reply(c.dispatch(args, c.bw.AvailableBuffer()))
		}
		if err != nil {
			if isTimeout(err) && !c.srv.draining() {
				c.srv.stats.idleClosed.Add(1)
			}
			break
		}
	}

	if c.txn != nil {
		// Disconnect (or drain) with a transaction open: roll it back so
		// its record locks never outlive the session.
		c.txn.Abort()
		c.txn = nil
		c.srv.stats.disconnectAborts.Add(1)
	}
	c.flush() // an error here means the peer is gone, which Close settles
	c.linger()
	c.nc.Close()
}

// linger ends the session without a reset. A client may have sent commands
// this connection will not execute — a drain stops between any two — and
// closing a socket with unread input makes the kernel answer with RST,
// which destroys replies still on their way to the client. So: half-close,
// so the client reads every reply and then EOF, and discard its input
// until it closes its end or lingerTimeout passes.
func (c *conn) linger() {
	hc, ok := c.nc.(interface{ CloseWrite() error })
	if !ok || hc.CloseWrite() != nil {
		return
	}
	c.nc.SetReadDeadline(time.Now().Add(lingerTimeout))
	io.Copy(io.Discard, c.nc)
}

// dispatch looks up and executes one command, appending the encoded reply to
// dst. An upper-case verb is looked up in place; others pay for a folded copy.
func (c *conn) dispatch(args [][]byte, dst []byte) []byte {
	v, ok := verbs[string(args[0])]
	if !ok {
		v, ok = verbs[strings.ToUpper(string(args[0]))]
	}
	if !ok {
		c.srv.stats.unknown.Add(1)
		return resp.AppendError(dst, "ERR", "unknown command '"+printable(args[0])+"'")
	}
	c.srv.stats.commands[v.idx].Add(1)
	if len(args) != v.arity {
		return resp.AppendError(dst, "ERR", "wrong number of arguments for '"+verbNames[v.idx]+"'")
	}
	start := time.Now()
	dst = v.fn(c, args, dst)
	c.srv.stats.verbLatency[v.idx].Observe(time.Since(start))
	return dst
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
	default:
		return resp.AppendError(dst, "ERR", err.Error())
	}
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	if err == nil {
		return false // before ne, which escapes, is allocated
	}
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
