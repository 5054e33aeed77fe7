//go:build race

package race

// Enabled reports whether the race detector is compiled in.
const Enabled = true
