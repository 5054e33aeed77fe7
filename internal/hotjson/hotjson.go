// Package hotjson is a hand-rolled, reflection-free JSON codec for the
// chronosd wire structs on the serving hot path, in the one direction
// production uses each: decoders for plan and admit requests, encoders for
// plan and admit responses and replay stream events.
//
// The encoders are append-style and byte-identical to encoding/json
// (declared field order, omitempty, HTML-escaped strings, ES6 float
// formatting, string-sorted map keys); the decoders accept exactly the
// inputs encoding/json accepts for the same structs (any field order,
// case-insensitive fallback matching, unknown-field skipping, null
// semantics, � replacement of invalid UTF-8). Both are fuzz-verified
// with encoding/json as the oracle and as the inverse direction — see
// fuzz_test.go. Neither allocates on well-formed hot inputs: encoders
// append into a caller-owned buffer, and decoders resolve repeated strings
// through an optional Interner instead of allocating fresh copies.
package hotjson

import "chronos/api"

// Interner resolves a decoded string to a previously allocated string with
// identical bytes, letting hot decodes avoid a per-request allocation for
// recurring values (tenant names, strategy names). Implementations must
// return (s, true) only when s is byte-for-byte equal to b; returning
// (_, false) makes the decoder allocate a fresh copy.
type Interner interface {
	InternString(b []byte) (string, bool)
}

// The four bodies this codec serves, by the names its callers (the serving
// layer, bench/) have always used; api holds the one declaration.
type (
	PlanRequest   = api.PlanRequest
	PlanResponse  = api.PlanResponse
	AdmitRequest  = api.AdmitRequest
	AdmitResponse = api.AdmitResponse
)

// commonStrings interns the strategy vocabulary every request carries, so
// decoding {"strategy":"clone"} never allocates regardless of the caller's
// Interner. Keys and values are the same constant, so an interned result is
// always byte-identical to the input.
var commonStrings = map[string]string{}

func init() {
	for _, s := range []string{
		"best", "Best", "BEST",
		"Clone", "clone", "CLONE",
		"Speculative-Restart", "speculative-restart", "restart", "s-restart",
		"Speculative-Resume", "speculative-resume", "resume", "s-resume",
		"Hadoop-NS", "hadoop-ns", "hadoopns",
		"Hadoop-S", "hadoop-s", "hadoops",
		"Mantri", "mantri",
	} {
		commonStrings[s] = s
	}
}
