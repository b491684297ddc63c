package wire

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

// countPipe is a duplex in-memory stream with independent read/write
// sides, safe for concurrent use, whose Close is also safe to call from
// several goroutines at once.
type countPipe struct {
	mu     sync.Mutex
	in     bytes.Reader
	out    bytes.Buffer
	closed atomic.Int64
}

func (p *countPipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.in.Read(b)
}

func (p *countPipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.Write(b)
}

func (p *countPipe) Close() error {
	p.closed.Add(1)
	return nil
}

func TestCountingConnBasics(t *testing.T) {
	p := &countPipe{}
	p.in.Reset(make([]byte, 100))
	c := NewCountingConn(p)
	if _, err := c.Write(make([]byte, 42)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, 30)); err != nil {
		t.Fatal(err)
	}
	if got := c.BytesWritten(); got != 42 {
		t.Fatalf("written = %d, want 42", got)
	}
	if got := c.BytesRead(); got != 30 {
		t.Fatalf("read = %d, want 30", got)
	}
}

// TestCountingConnConcurrent drives Read, Write, and the counter getters
// from many goroutines at once and checks the totals are exact — the
// shape of use in fednet, where the server reads a response on one
// goroutine while telemetry samples the counters from another. Run under
// -race this also proves the counters are data-race free.
func TestCountingConnConcurrent(t *testing.T) {
	const (
		writers  = 8
		perWrite = 64
		writes   = 200
	)
	p := &countPipe{}
	p.in.Reset(make([]byte, writers*perWrite*writes))
	c := NewCountingConn(p)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, perWrite)
			for i := 0; i < writes; i++ {
				if _, err := c.Write(buf); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if _, err := c.Read(buf); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				// Sampling mid-traffic must be safe (values are monotone
				// snapshots, not necessarily the final totals).
				_ = c.BytesRead()
				_ = c.BytesWritten()
			}
		}()
	}
	wg.Wait()
	want := int64(writers * perWrite * writes)
	if got := c.BytesRead(); got != want {
		t.Fatalf("read = %d, want %d", got, want)
	}
	if got := c.BytesWritten(); got != want {
		t.Fatalf("written = %d, want %d", got, want)
	}
}

// TestCountingConnNonCloserStream checks Close on a wrapper around a
// plain ReadWriter (no Closer) returns nil and keeps the counts.
func TestCountingConnNonCloserStream(t *testing.T) {
	var buf bytes.Buffer
	c := NewCountingConn(struct{ io.ReadWriter }{&buf})
	if _, err := c.Write(make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.BytesWritten() != 5 {
		t.Fatalf("written = %d after close, want 5", c.BytesWritten())
	}
}

func TestCountingConn(t *testing.T) {
	var buf bytes.Buffer
	c := NewCountingConn(&buf)
	if err := WriteMessage(c, &Hello{ClientID: 1}); err != nil {
		t.Fatal(err)
	}
	written := c.BytesWritten()
	if written != int64(buf.Len()) {
		t.Fatalf("counted %d written, buffer has %d", written, buf.Len())
	}
	if _, err := ReadMessage(c); err != nil {
		t.Fatal(err)
	}
	if c.BytesRead() != written {
		t.Fatalf("read count %d, want %d", c.BytesRead(), written)
	}
}

// closableBuffer records whether Close reached the wrapped stream.
type closableBuffer struct {
	bytes.Buffer
	closed int
}

func (c *closableBuffer) Close() error {
	c.closed++
	return nil
}

func TestCountingConnClose(t *testing.T) {
	var under closableBuffer
	c := NewCountingConn(&under)
	if err := WriteMessage(c, &Hello{ClientID: 7}); err != nil {
		t.Fatal(err)
	}
	written := c.BytesWritten()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if under.closed != 1 {
		t.Fatalf("underlying stream closed %d times, want 1", under.closed)
	}
	// A second Close forwards too, and the counts outlive the close.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if under.closed != 2 || c.BytesWritten() != written || c.BytesRead() != 0 {
		t.Fatalf("after two closes: %d forwarded, counts (%d, %d), want 2 and (0, %d)",
			under.closed, c.BytesRead(), c.BytesWritten(), written)
	}
}
