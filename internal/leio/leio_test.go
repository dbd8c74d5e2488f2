package leio

import (
	"bytes"
	"hash/crc32"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Raw([]byte("MAGC"))
	w.U32(7)
	w.I64(-42)
	w.I32s([]int32{1, -2, 3})
	w.Pad8()
	w.I64s([]int64{1 << 40, -5})
	w.U64s([]uint64{0xdeadbeef, 1 << 63})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := w.Count(); got != int64(buf.Len()) {
		t.Fatalf("Count = %d, wrote %d", got, buf.Len())
	}
	if buf.Len()%8 != 0 {
		t.Fatalf("padded stream length %d not 8-aligned", buf.Len())
	}

	r := NewReader(buf.Bytes())
	if string(r.Bytes(4)) != "MAGC" {
		t.Fatal("magic mismatch")
	}
	if r.U32() != 7 || r.I64() != -42 {
		t.Fatal("scalar mismatch")
	}
	xs := r.I32s(3)
	r.Align8()
	ys := r.I64s(2)
	zs := r.U64s(2)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if xs[0] != 1 || xs[1] != -2 || xs[2] != 3 || ys[0] != 1<<40 || ys[1] != -5 || zs[0] != 0xdeadbeef || zs[1] != 1<<63 {
		t.Fatalf("section mismatch: %v %v %v", xs, ys, zs)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

func TestReaderTruncation(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if r.I64(); r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Sticky: everything after the failure is a zero-value no-op.
	if r.U32() != 0 || r.I32s(5) != nil || r.U64s(1) != nil || r.Err() == nil {
		t.Fatal("error did not stick")
	}
}

func TestReaderCount(t *testing.T) {
	r := NewReader(make([]byte, 16))
	if got := r.Count(2, 8); got != 2 {
		t.Fatalf("Count(2,8) = %d", got)
	}
	if got := r.Count(3, 8); got != -1 || r.Err() == nil {
		t.Fatalf("oversized count accepted: %d", got)
	}
	r2 := NewReader(make([]byte, 16))
	if got := r2.Count(-1, 4); got != -1 || r2.Err() == nil {
		t.Fatalf("negative count accepted: %d", got)
	}
}

func TestZeroCopyAliasing(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("zero-copy path requires a little-endian host")
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I64s([]int64{10, 20}) // 8-aligned at offset 0
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	r := NewReader(data)
	xs := r.I64s(2)
	xs[0] = 99 // aliasing: must write through to data
	r2 := NewReader(data)
	if got := r2.I64(); got != 99 {
		t.Fatalf("section not aliased: read back %d", got)
	}
}

// TestChecksum pins both halves to the stdlib CRC-32 values of the same
// bytes, and checks that split writes sum like one write.
func TestChecksum(t *testing.T) {
	data := []byte("123456789 the quick brown fox jumps over the lazy dog")
	var whole, split Checksum
	whole.Write(data)
	split.Write(data[:7])
	split.Write(nil)
	split.Write(data[7:])
	want := uint64(crc32.ChecksumIEEE(data))<<32 | uint64(crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)))
	if whole.Sum64() != want || split.Sum64() != want {
		t.Fatalf("Sum64 = %#x (split %#x), want %#x", whole.Sum64(), split.Sum64(), want)
	}
	// The standard check values of both polynomials over "123456789".
	var check Checksum
	check.Write(data[:9])
	if got := check.Sum64(); got != 0xcbf43926e3069283 {
		t.Fatalf("check value = %#x, want 0xcbf43926e3069283", got)
	}
	var empty Checksum
	if empty.Sum64() != 0 {
		t.Fatalf("empty Sum64 = %#x, want 0", empty.Sum64())
	}
}
