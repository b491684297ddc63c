// Package persist provides durable storage for the artifacts a federated
// run produces: flat parameter vectors (global model checkpoints, CVAE
// decoder payloads) in a versioned little-endian binary format, and the
// federation checkpoint a run resumes from (checkpoint.go).
package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Magic and version identify the weight-vector file format.
const (
	weightsMagic   = 0x46644757 // "FdGW"
	weightsVersion = 1
	// weightsHeaderBytes is magic + version + count.
	weightsHeaderBytes = 12
)

// WriteWeights serializes a flat parameter vector to w: magic, version,
// length, then raw little-endian float32s.
func WriteWeights(w io.Writer, weights []float32) error {
	bw := bufio.NewWriter(w)
	header := []uint32{weightsMagic, weightsVersion, uint32(len(weights))}
	for _, h := range header {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("persist: writing header: %w", err)
		}
	}
	buf := make([]byte, 4)
	for _, v := range weights {
		binary.LittleEndian.PutUint32(buf, math.Float32bits(v))
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("persist: writing weights: %w", err)
		}
	}
	return bw.Flush()
}

// ReadWeights deserializes a parameter vector written by WriteWeights.
// The header's count is untrusted: the body is read through readChunked,
// so a hostile count costs at most allocChunk beyond the bytes actually
// present before truncation is noticed (a checkpoint directory's decoder
// blobs are read through here on resume).
func ReadWeights(r io.Reader) ([]float32, error) {
	var header [weightsHeaderBytes]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, fmt.Errorf("persist: reading header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(header[0:]); magic != weightsMagic {
		return nil, fmt.Errorf("persist: bad magic %#x", magic)
	}
	if version := binary.LittleEndian.Uint32(header[4:]); version != weightsVersion {
		return nil, fmt.Errorf("persist: unsupported version %d", version)
	}
	n := binary.LittleEndian.Uint32(header[8:])
	const maxParams = 1 << 28 // 1 GiB of float32s; guards corrupt headers
	if n > maxParams {
		return nil, fmt.Errorf("persist: implausible parameter count %d", n)
	}
	raw, err := readChunked(r, 4*int(n))
	if err != nil {
		return nil, fmt.Errorf("persist: reading %d weights: %w", n, err)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out, nil
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
