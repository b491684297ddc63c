// Package persist provides durable storage for the artifacts a federated
// run produces: flat parameter vectors (global model checkpoints, CVAE
// decoder payloads) in a versioned little-endian binary format, and the
// federation checkpoint a run resumes from (checkpoint.go).
package persist

import (
	"fmt"
	"io"
	"os"

	"fedguard/internal/lebin"
)

// Magic and version identify the weight-vector file format.
const (
	weightsMagic   = 0x46644757 // "FdGW"
	weightsVersion = 1
	// weightsHeaderBytes is magic + version + count.
	weightsHeaderBytes = 12
	// writeChunk is WriteWeights' buffer: bufio's default size, so a
	// decoder blob of any length costs one small allocation to write.
	writeChunk = 4096
)

// WriteWeights serializes a flat parameter vector to w: magic, version,
// length, then raw little-endian float32s, streamed through one
// writeChunk-sized buffer.
func WriteWeights(w io.Writer, weights []float32) error {
	b := make([]byte, 0, writeChunk)
	b = lebin.AppendU32(lebin.AppendU32(b, weightsMagic), weightsVersion)
	b = lebin.AppendU32(b, uint32(len(weights)))
	for {
		k := min(len(weights), (cap(b)-len(b))/4)
		b = lebin.AppendFloats(b, weights[:k])
		weights = weights[k:]
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("persist: writing weights: %w", err)
		}
		if len(weights) == 0 {
			return nil
		}
		b = b[:0]
	}
}

// ReadWeights deserializes a parameter vector written by WriteWeights.
// The header's count is untrusted: the body is read through
// lebin.ReadFull, so a hostile count costs at most one allocation chunk
// beyond the bytes actually present before truncation is noticed (a
// checkpoint directory's decoder blobs are read through here on resume).
func ReadWeights(r io.Reader) ([]float32, error) {
	head, err := lebin.ReadFull(r, weightsHeaderBytes)
	if err != nil {
		return nil, fmt.Errorf("persist: reading header: %w", err)
	}
	h := lebin.NewReader(head)
	if magic := h.U32(); magic != weightsMagic {
		return nil, fmt.Errorf("persist: bad magic %#x", magic)
	}
	if version := h.U32(); version != weightsVersion {
		return nil, fmt.Errorf("persist: unsupported version %d", version)
	}
	n := h.U32()
	const maxParams = 1 << 28 // 1 GiB of float32s; guards corrupt headers
	if n > maxParams {
		return nil, fmt.Errorf("persist: implausible parameter count %d", n)
	}
	raw, err := lebin.ReadFull(r, 4*int(n))
	if err != nil {
		return nil, fmt.Errorf("persist: reading %d weights: %w", n, err)
	}
	return lebin.NewReader(raw).Floats(n), nil
}

// SaveWeights writes a parameter vector to path, atomically and
// durably: temporary file in the same directory, fsync, then rename. A
// crash mid-save leaves any previous file at path intact.
func SaveWeights(path string, weights []float32) error {
	return atomicWrite(path, func(f *os.File) error {
		return WriteWeights(f, weights)
	})
}

// atomicWrite streams content into path+".tmp", fsyncs, and renames the
// result over path — the shared crash-safety discipline for every
// artifact this package persists.
func atomicWrite(path string, write func(*os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
