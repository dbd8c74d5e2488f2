//go:build unix

package multilayer

// wantZeroCopy: unix builds map .mlgb files instead of reading them.
const wantZeroCopy = true
