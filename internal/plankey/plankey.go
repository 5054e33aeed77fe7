// Package plankey owns the canonical plan-key format: the quantized string
// that identifies one optimization request across the whole fleet. The
// serving layer keys its sharded plan cache and its consistent-hash ring
// with it, and the client package hashes it locally to route requests
// straight to the owning replica — both sides must build byte-identical
// keys, which is why the format lives in one package instead of two.
package plankey

import (
	"strconv"
	"strings"

	"chronos"
)

// Key builds the plan key for one optimization request. Floats are
// quantized to six significant digits, so jobs whose parameters differ only
// in measurement noise below that resolution share a plan — the point of
// the plan cache: schedulers see streams of near-identical jobs (same
// benchmark, same SLA tier) and Algorithm 1 is invariant under sub-ppm
// perturbations. strategy is the canonical strategy name, "" for
// best-of-three planning (see ParseStrategy).
func Key(strategy string, p chronos.JobParams, e chronos.Econ) string {
	return string(AppendKey(nil, strategy, p, e))
}

// AppendKey appends the plan key to dst and returns the extended slice —
// Key for the serving hot path, which reuses a pooled buffer instead of
// allocating a string per request. The output is byte-identical to Key
// (historically fmt.Sprintf with %.6g), which fleet-wide ring placement
// depends on.
func AppendKey(dst []byte, strategy string, p chronos.JobParams, e chronos.Econ) []byte {
	dst = append(dst, strategy...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(p.Tasks), 10)
	for _, f := range [...]float64{p.Deadline, p.TMin, p.Beta, p.TauEst,
		p.TauKill, p.PhiEst, e.Theta, e.UnitPrice, e.RMin} {
		dst = append(dst, '|')
		// strconv's 'g' with precision 6 is exactly fmt's %.6g; fmt itself
		// defers to this call for float verbs.
		dst = strconv.AppendFloat(dst, f, 'g', 6, 64)
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
