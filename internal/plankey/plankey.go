// Package plankey owns the canonical plan-key format: the bytes that
// identify one optimization request across the whole fleet. The serving
// layer keys its sharded plan cache and its rendezvous-hash ring with it,
// and the client package hashes it locally to route requests straight to
// the owning replica — both sides must build byte-identical keys, which is
// why the format lives in one package instead of two.
//
// A key is the request's exact bits: two requests share a key — and so a
// cache cell and a ring owner — iff their strategy component, Tasks and all
// nine float fields are bit-identical. Nothing is rounded, so a cached plan
// is the plan of every request that names its cell, whichever filled it.
package plankey

import (
	"encoding/binary"
	"math"
	"strings"

	"chronos"
)

// fields is the number of fixed-width words after the strategy component:
// Tasks and the nine floats.
const fields = 10

// Len is the length of every key whose strategy component is strategy.
func Len(strategy string) int { return len(strategy) + 1 + 8*fields }

// Key builds the plan key for one optimization request: the strategy
// component and '|', then Tasks and Deadline, TMin, Beta, TauEst, TauKill,
// PhiEst, Theta, UnitPrice and RMin as their math.Float64bits, each a
// little-endian uint64. Two requests share a key iff every field is
// bit-identical (so 0 and -0 are two keys). strategy is the canonical
// strategy name, "" for best-of-three planning (see ParseStrategy).
func Key(strategy string, p chronos.JobParams, e chronos.Econ) string {
	return string(AppendKey(nil, strategy, p, e))
}

// AppendKey appends Key's bytes to dst and returns the extended slice — Key
// for the serving hot path, which reuses a pooled buffer instead of
// allocating a string per request.
func AppendKey(dst []byte, strategy string, p chronos.JobParams, e chronos.Econ) []byte {
	dst = append(dst, strategy...)
	dst = append(dst, '|')
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Tasks))
	for _, f := range [fields - 1]float64{p.Deadline, p.TMin, p.Beta, p.TauEst,
		p.TauKill, p.PhiEst, e.Theta, e.UnitPrice, e.RMin} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// ParseStrategy resolves a request's optional strategy selector: empty or
// "best" (any case) means best-of-three planning (best == true, key component
// ""); otherwise s is the pinned strategy, whose String() is the key
// component. ok is false for unparseable names.
func ParseStrategy(name string) (s chronos.Strategy, best, ok bool) {
	name = strings.TrimSpace(name)
	if name == "" || strings.EqualFold(name, "best") {
		return 0, true, true
	}
	s, err := chronos.ParseStrategy(name)
	return s, false, err == nil
}
