// Package hotjson is a hand-rolled, reflection-free JSON codec for the
// chronosd wire structs on the serving hot path, in the one direction
// production uses each: decoders for the /v1/plan, /v1/admit and
// /v1/admit/batch request bodies, encoders for their 200 responses and for
// /v1/replay's stream events. encoding/json serves what is left: the
// /v1/plan/batch, /v1/tradeoff and /v1/replay requests, their responses, and
// every error envelope.
//
// The encoders are append-style and byte-identical to encoding/json
// (declared field order, omitempty, HTML-escaped strings, ES6 float
// formatting, string-sorted map keys); the decoders accept exactly the
// inputs a strict encoding/json decoder (DisallowUnknownFields, one value)
// accepts for the same structs (any field order, case-insensitive fallback
// matching, null semantics, � replacement of invalid UTF-8) and reject an
// unknown key with its text, `json: unknown field "<key>"`. Both are
// fuzz-verified with encoding/json as the oracle and as the inverse
// direction — see fuzz_test.go. Neither allocates on well-formed hot inputs: encoders
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

// The six bodies this codec serves, by the names its callers (the serving
// layer, bench/) have always used; api holds the one declaration.
type (
	PlanRequest        = api.PlanRequest
	PlanResponse       = api.PlanResponse
	AdmitRequest       = api.AdmitRequest
	AdmitResponse      = api.AdmitResponse
	AdmitBatchRequest  = api.AdmitBatchRequest
	AdmitBatchResponse = api.AdmitBatchResponse
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
