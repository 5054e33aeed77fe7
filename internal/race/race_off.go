//go:build !race

// Package race tells tests whether the binary was built with -race, which
// instruments allocations and defeats sync.Pool reuse: allocation-count
// assertions are only meaningful without it, and skip themselves with it.
package race

// Enabled reports whether the race detector is compiled in.
const Enabled = false
