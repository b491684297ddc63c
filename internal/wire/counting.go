package wire

import (
	"io"
	"sync/atomic"
)

// CountingConn wraps a stream and counts bytes in both directions. The
// networked federation uses it to report *measured* wire traffic rather
// than computed payload sizes, making Table V's communication columns an
// actual observation.
//
// CountingConn is an io.Closer: callers that hold only the wrapper can
// (and should) close it, and the close passes through to the wrapped
// stream so the underlying net.Conn is not leaked.
type CountingConn struct {
	rw      io.ReadWriter
	read    atomic.Int64
	written atomic.Int64
}

// NewCountingConn wraps rw.
func NewCountingConn(rw io.ReadWriter) *CountingConn {
	return &CountingConn{rw: rw}
}

// Close implements io.Closer: it closes the wrapped stream if it is
// itself a Closer. Every Close forwards; the counts stay readable.
func (c *CountingConn) Close() error {
	if cl, ok := c.rw.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// Read implements io.Reader.
func (c *CountingConn) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// Write implements io.Writer.
func (c *CountingConn) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// BytesRead returns the total bytes read so far.
func (c *CountingConn) BytesRead() int64 { return c.read.Load() }

// BytesWritten returns the total bytes written so far.
func (c *CountingConn) BytesWritten() int64 { return c.written.Load() }
