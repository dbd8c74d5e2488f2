//go:build !unix

package multilayer

// wantZeroCopy: builds without mmap read .mlgb files into a heap copy.
const wantZeroCopy = false
