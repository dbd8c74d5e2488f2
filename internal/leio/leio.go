// Package leio provides little-endian section I/O for the repo's binary
// on-disk formats (.mlgb graphs, .mlgs engine snapshots). A "section" is a
// flat numeric array written as raw little-endian bytes; on little-endian
// hardware — every platform we target — sections are written straight from
// and read straight into the backing arrays with no per-element encoding,
// which is what makes binary graph loading a memcpy instead of a parse.
//
// Readers operate on a byte slice (typically one os.ReadFile of the whole
// artifact). When the requested section is suitably aligned inside the
// buffer and the host is little-endian, the returned slice aliases the
// buffer (zero-copy); otherwise it is decoded into a fresh allocation.
// Formats built on leio keep their sections 8-byte aligned so the
// zero-copy path is the one that runs in practice.
//
// Both Reader and Writer use sticky errors: after the first failure every
// subsequent call is a no-op returning zero values, and the error is
// surfaced once at the end (Err / Flush). Readers never panic on
// truncated or corrupt input; they fail the stream instead, which is the
// contract the fuzz tests pin down.
//
// WriteFileAtomic replaces a file through a temporary file in the
// target's directory, renamed over it; the graph and snapshot writers use
// it.
package leio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// hostLittleEndian reports whether the host stores integers little-endian.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Writer emits little-endian scalars and sections with a sticky error.
type Writer struct {
	w   io.Writer
	bw  *bufio.Writer // buffers w; nil when w is a Checksum
	n   int64         // bytes written so far (for alignment padding)
	err error
}

// NewWriter returns a Writer emitting to w. Output to a *Checksum goes
// straight to it, so hashing an encoding copies no section.
func NewWriter(w io.Writer) *Writer {
	if _, ok := w.(*Checksum); ok {
		return &Writer{w: w}
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	return &Writer{w: bw, bw: bw}
}

// Count returns the number of bytes written so far.
func (w *Writer) Count() int64 { return w.n }

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.w.Write(p); err != nil {
		w.err = err
		return
	}
	w.n += int64(len(p))
}

// U32 writes one little-endian uint32.
func (w *Writer) U32(x uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], x)
	w.write(b[:])
}

// I64 writes one little-endian int64.
func (w *Writer) I64(x int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(x))
	w.write(b[:])
}

// Raw writes a byte section verbatim.
func (w *Writer) Raw(p []byte) { w.write(p) }

// I32s writes a section of little-endian int32 values.
func (w *Writer) I32s(xs []int32) {
	if hostLittleEndian {
		w.write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 4*len(xs)))
		return
	}
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		w.write(b[:])
	}
}

// I64s writes a section of little-endian int64 values.
func (w *Writer) I64s(xs []int64) {
	if hostLittleEndian {
		w.write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 8*len(xs)))
		return
	}
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		w.write(b[:])
	}
}

// U64s writes a section of little-endian uint64 values.
func (w *Writer) U64s(xs []uint64) {
	if hostLittleEndian {
		w.write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 8*len(xs)))
		return
	}
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], x)
		w.write(b[:])
	}
}

var zeroPad [8]byte

// Pad8 pads the stream with zero bytes to the next 8-byte boundary, so
// that the section following it stays alignable for zero-copy reads.
func (w *Writer) Pad8() {
	if rem := w.n % 8; rem != 0 {
		w.write(zeroPad[:8-rem])
	}
}

// Flush flushes buffered output and returns the sticky error, if any.
func (w *Writer) Flush() error {
	if w.err != nil || w.bw == nil {
		return w.err
	}
	return w.bw.Flush()
}

// Reader consumes little-endian scalars and sections from an in-memory
// buffer with a sticky error. Section reads alias the buffer when the
// host is little-endian and the section is aligned.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the sticky error, if any.
func (r *Reader) Err() error { return r.err }

// Failf fails the stream with a formatted error (first failure wins).
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Offset returns the current read position.
func (r *Reader) Offset() int { return r.off }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// take reserves n bytes from the buffer, failing the stream when fewer
// remain. n must be non-negative.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.Failf("leio: truncated input: need %d bytes at offset %d, have %d", n, r.off, len(r.buf)-r.off)
		return nil
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p
}

// U32 reads one little-endian uint32.
func (r *Reader) U32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// I64 reads one little-endian int64.
func (r *Reader) I64() int64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(p))
}

// Bytes reads a byte section verbatim, aliasing the buffer.
func (r *Reader) Bytes(n int) []byte { return r.take(n) }

// Align8 skips padding up to the next 8-byte boundary.
func (r *Reader) Align8() {
	if rem := r.off % 8; rem != 0 {
		r.take(8 - rem)
	}
}

// Count validates a section length read from the input: it must be
// non-negative and, at size bytes per element, fit in the unread buffer.
// On failure the stream is failed and -1 returned, so callers can bail
// out before allocating attacker-controlled amounts of memory.
func (r *Reader) Count(n int64, size int) int {
	if r.err != nil {
		return -1
	}
	if n < 0 || n > math.MaxInt/int64(size) || int(n)*size > r.Remaining() {
		r.Failf("leio: implausible section length %d (×%d bytes) at offset %d, %d bytes remain", n, size, r.off, r.Remaining())
		return -1
	}
	return int(n)
}

// aligned reports whether p is aligned for elements of the given size.
func aligned(p []byte, size int) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(p)))%uintptr(size) == 0
}

// I32s reads a section of count little-endian int32 values, zero-copy
// when possible.
func (r *Reader) I32s(count int) []int32 {
	p := r.take(4 * count)
	if p == nil || count == 0 {
		return nil
	}
	if hostLittleEndian && aligned(p, 4) {
		return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(p))), count)
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out
}

// I64s reads a section of count little-endian int64 values, zero-copy
// when possible.
func (r *Reader) I64s(count int) []int64 {
	p := r.take(8 * count)
	if p == nil || count == 0 {
		return nil
	}
	if hostLittleEndian && aligned(p, 8) {
		return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(p))), count)
	}
	out := make([]int64, count)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

// U64s reads a section of count little-endian uint64 values, zero-copy
// when possible.
func (r *Reader) U64s(count int) []uint64 {
	p := r.take(8 * count)
	if p == nil || count == 0 {
		return nil
	}
	if hostLittleEndian && aligned(p, 8) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(p))), count)
	}
	out := make([]uint64, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	return out
}
