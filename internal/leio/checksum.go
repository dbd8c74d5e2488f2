package leio

import "hash/crc32"

// castagnoli is the CRC-32C table. Like the IEEE table, the stdlib
// updates it with hardware instructions on amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the repo's one content hash: a 64-bit pair of CRC-32
// (IEEE) in the high half and CRC-32C (Castagnoli) in the low half, over
// the same bytes. It keys graph fingerprints and seals .mlgs snapshots.
// Both halves run at memory speed where a byte-at-a-time hash costs
// milliseconds per megabyte; the two polynomials together give a 64-bit
// value. It detects corruption; it is not a MAC. The zero value is an
// empty checksum ready to use.
type Checksum struct {
	ieee, castagnoli uint32
}

// Write adds p to the checksum. It never fails.
func (c *Checksum) Write(p []byte) (int, error) {
	c.ieee = crc32.Update(c.ieee, crc32.IEEETable, p)
	c.castagnoli = crc32.Update(c.castagnoli, castagnoli, p)
	return len(p), nil
}

// Sum64 returns the checksum of everything written so far.
func (c *Checksum) Sum64() uint64 {
	return uint64(c.ieee)<<32 | uint64(c.castagnoli)
}
