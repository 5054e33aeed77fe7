package hotjson

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"chronos"
	"chronos/api"
)

// decoder is a single-pass JSON scanner over one request body. It lives on
// the caller's stack; scratch is only touched when a string needs
// unescaping or UTF-8 repair, so hot numeric bodies never allocate.
type decoder struct {
	data    []byte
	off     int
	intern  Interner
	scratch []byte
}

func (d *decoder) syntaxf(format string, args ...any) error {
	return fmt.Errorf("hotjson: "+format+" at offset %d", append(args, d.off)...)
}

var errUnexpectedEnd = fmt.Errorf("hotjson: unexpected end of JSON input")

// peek returns the next non-whitespace byte without consuming it.
func (d *decoder) peek() (byte, error) {
	for d.off < len(d.data) {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return c, nil
		}
	}
	return 0, errUnexpectedEnd
}

func (d *decoder) literal(lit string) error {
	if len(d.data)-d.off < len(lit) || string(d.data[d.off:d.off+len(lit)]) != lit {
		return d.syntaxf("invalid literal")
	}
	d.off += len(lit)
	return nil
}

// end verifies only whitespace remains, as json.Unmarshal does after the
// top-level value.
func (d *decoder) end() error {
	if _, err := d.peek(); err == nil {
		return d.syntaxf("invalid character after top-level value")
	}
	return nil
}

// stringBytes decodes a JSON string starting at the opening quote. The
// returned slice aliases either the input (fast path: printable ASCII, no
// escapes) or d.scratch, and is valid until the next stringBytes call.
// Escapes and UTF-8 repair follow encoding/json: surrogate pairs combine,
// unpaired surrogates and invalid UTF-8 become U+FFFD.
func (d *decoder) stringBytes() ([]byte, error) {
	if d.off >= len(d.data) || d.data[d.off] != '"' {
		return nil, d.syntaxf("expected string")
	}
	start := d.off + 1
	i := start
	for i < len(d.data) {
		c := d.data[i]
		if c == '"' {
			d.off = i + 1
			return d.data[start:i], nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			return d.stringBytesSlow(start, i)
		}
		i++
	}
	return nil, errUnexpectedEnd
}

// stringBytesSlow finishes a string that needs escape processing or UTF-8
// validation, writing the decoded form into d.scratch. start is the index
// just past the opening quote; clean is the index of the first byte that
// needs attention (everything in [start, clean) is plain ASCII).
func (d *decoder) stringBytesSlow(start, clean int) ([]byte, error) {
	b := append(d.scratch[:0], d.data[start:clean]...)
	s := d.data
	r := clean
	for r < len(s) {
		switch c := s[r]; {
		case c == '"':
			d.off = r + 1
			d.scratch = b
			return b, nil
		case c == '\\':
			r++
			if r >= len(s) {
				return nil, errUnexpectedEnd
			}
			switch s[r] {
			case '"', '\\', '/':
				b = append(b, s[r])
				r++
			case 'b':
				b = append(b, '\b')
				r++
			case 'f':
				b = append(b, '\f')
				r++
			case 'n':
				b = append(b, '\n')
				r++
			case 'r':
				b = append(b, '\r')
				r++
			case 't':
				b = append(b, '\t')
				r++
			case 'u':
				r--
				rr := getu4(s[r:])
				if rr < 0 {
					return nil, d.syntaxf("invalid \\u escape")
				}
				r += 6
				if utf16.IsSurrogate(rr) {
					rr1 := getu4(s[r:])
					if dec := utf16.DecodeRune(rr, rr1); dec != utf8.RuneError {
						// A valid pair; consume both halves.
						r += 6
						b = utf8.AppendRune(b, dec)
						break
					}
					// Unpaired surrogate: replacement rune, second
					// escape (if any) processed on its own.
					rr = utf8.RuneError
				}
				b = utf8.AppendRune(b, rr)
			default:
				return nil, d.syntaxf("invalid escape character")
			}
		case c < ' ':
			return nil, d.syntaxf("invalid control character in string")
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			if rr == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
				r++
				break
			}
			b = append(b, s[r:r+size]...)
			r += size
		}
	}
	return nil, errUnexpectedEnd
}

// getu4 decodes \uXXXX from the start of s, returning -1 on malformed
// input — a direct port of encoding/json's helper.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// numberToken consumes one number per the JSON grammar and returns its raw
// bytes.
func (d *decoder) numberToken() ([]byte, error) {
	s := d.data
	i := d.off
	start := i
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i++
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
	default:
		return nil, d.syntaxf("invalid number")
	}
	if i < len(s) && s[i] == '.' {
		i++
		if i >= len(s) || s[i] < '0' || s[i] > '9' {
			return nil, d.syntaxf("invalid number")
		}
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i >= len(s) || s[i] < '0' || s[i] > '9' {
			return nil, d.syntaxf("invalid number")
		}
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
	}
	d.off = i
	return s[start:i], nil
}

// null skips whitespace and consumes a null if one is next — a no-op for the
// struct field being decoded, as in encoding/json. When it returns false with
// no error, d.off is at the first byte of a non-null value.
func (d *decoder) null() (bool, error) {
	c, err := d.peek()
	if err != nil || c != 'n' {
		return false, err
	}
	return true, d.literal("null")
}

// object walks one JSON object, or consumes a null, which leaves the struct
// untouched as in encoding/json. Each key is resolved against names, the
// struct's JSON field names in declaration order, and field(i) decodes the
// value of the i-th one; a key the struct does not declare is an error, as
// under a json.Decoder with DisallowUnknownFields. A key decoded by
// stringBytes is only valid until the next string decode, so it is resolved
// before its value is read.
func (d *decoder) object(names []string, field func(i int) error) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	if d.data[d.off] != '{' {
		return d.syntaxf("expected object")
	}
	d.off++
	for first := true; ; first = false {
		c, err := d.peek()
		if err != nil {
			return err
		}
		switch {
		case c == '}':
			d.off++
			return nil
		case first:
		case c == ',':
			d.off++
			if c, err = d.peek(); err != nil {
				return err
			}
		default:
			return d.syntaxf("expected ',' or '}' in object")
		}
		if c != '"' {
			return d.syntaxf("expected object key string")
		}
		key, err := d.stringBytes()
		if err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		if c != ':' {
			return d.syntaxf("expected ':' after object key")
		}
		d.off++
		i := fieldIndex(names, key)
		if i < 0 {
			return fmt.Errorf("json: unknown field %q", key)
		}
		if err := field(i); err != nil {
			return err
		}
	}
}

// array walks one JSON array, or consumes a null, which it reports as
// isNull. elem(i) decodes the i-th element; n is how many it decoded.
func (d *decoder) array(elem func(i int) error) (n int, isNull bool, err error) {
	if isNull, err = d.null(); isNull || err != nil {
		return 0, isNull, err
	}
	if d.data[d.off] != '[' {
		return 0, false, d.syntaxf("expected array")
	}
	d.off++
	c, err := d.peek()
	if err != nil {
		return 0, false, err
	}
	if c == ']' {
		d.off++
		return 0, false, nil
	}
	for {
		if err := elem(n); err != nil {
			return n, false, err
		}
		n++
		if c, err = d.peek(); err != nil {
			return n, false, err
		}
		switch c {
		case ']':
			d.off++
			return n, false, nil
		case ',':
			d.off++
		default:
			return n, false, d.syntaxf("expected ',' or ']' in array")
		}
	}
}

// fieldIndex resolves a decoded key to its index in names with
// encoding/json's precedence: an exact match anywhere in the struct beats a
// case-folded one. -1 means the struct has no such field.
func fieldIndex(names []string, key []byte) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// floatField decodes a JSON number into dst; null is a no-op, anything
// else is an error — matching encoding/json for a float64 struct field.
func (d *decoder) floatField(dst *float64) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	tok, err := d.numberToken()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return d.syntaxf("number %s out of range", tok)
	}
	*dst = f
	return nil
}

func (d *decoder) intField(dst *int) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	tok, err := d.numberToken()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return d.syntaxf("cannot decode number %s into int", tok)
	}
	*dst = int(n)
	return nil
}

// internedString resolves decoded bytes to a string, consulting the common
// vocabulary and the caller's Interner before allocating.
func (d *decoder) internedString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := commonStrings[string(b)]; ok {
		return s
	}
	if d.intern != nil {
		if s, ok := d.intern.InternString(b); ok {
			return s
		}
	}
	return string(b)
}

func (d *decoder) stringField(dst *string) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	b, err := d.stringBytes()
	if err != nil {
		return err
	}
	*dst = d.internedString(b)
	return nil
}

// The name tables list each struct's JSON keys in declaration order; the
// index object hands back is the field's position in its table.
var (
	jobParamsFields = []string{"tasks", "deadline", "tmin", "beta", "tauEst", "tauKill", "phiEst"}
	econFields      = []string{"theta", "unitPrice", "rmin"}
	planFields      = []string{"job", "econ", "strategy"}
	admitFields     = []string{"job", "econ", "strategy", "tenant"}
	batchFields     = []string{"tenant", "jobs", "econ"}
	batchJobFields  = []string{"job", "strategy"}
)

func (d *decoder) jobParams(v *chronos.JobParams) error {
	return d.object(jobParamsFields, func(i int) error {
		switch i {
		case 0:
			return d.intField(&v.Tasks)
		case 1:
			return d.floatField(&v.Deadline)
		case 2:
			return d.floatField(&v.TMin)
		case 3:
			return d.floatField(&v.Beta)
		case 4:
			return d.floatField(&v.TauEst)
		case 5:
			return d.floatField(&v.TauKill)
		default:
			return d.floatField(&v.PhiEst)
		}
	})
}

func (d *decoder) econ(v *chronos.Econ) error {
	return d.object(econFields, func(i int) error {
		switch i {
		case 0:
			return d.floatField(&v.Theta)
		case 1:
			return d.floatField(&v.UnitPrice)
		default:
			return d.floatField(&v.RMin)
		}
	})
}

// DecodePlanRequest decodes data into v with encoding/json's semantics for
// the same struct. in may be nil.
func DecodePlanRequest(data []byte, v *PlanRequest, in Interner) error {
	return decodeRequest(data, in, planFields, &v.Job, &v.Econ, &v.Strategy, nil)
}

// DecodeAdmitRequest decodes data into v with encoding/json's semantics
// for the same struct. in may be nil.
func DecodeAdmitRequest(data []byte, v *AdmitRequest, in Interner) error {
	return decodeRequest(data, in, admitFields, &v.Job, &v.Econ, &v.Strategy, &v.Tenant)
}

// decodeRequest is the one body behind both request decoders: an admit
// request is a plan request plus the tenant it names (names omits "tenant"
// for a plan, whose tenant is nil), and JSON does not see the order the Go
// structs declare them in.
func decodeRequest(data []byte, in Interner, names []string, job *chronos.JobParams, econ *chronos.Econ, strategy, tenant *string) error {
	d := decoder{data: data, intern: in}
	err := d.object(names, func(i int) error {
		switch i {
		case 0:
			return d.jobParams(job)
		case 1:
			return d.econ(econ)
		case 2:
			return d.stringField(strategy)
		default:
			return d.stringField(tenant)
		}
	})
	if err != nil {
		return err
	}
	return d.end()
}

// DecodeAdmitBatchRequest decodes data into v with encoding/json's
// semantics for a zero AdmitBatchRequest. in may be nil. It keeps v.Jobs's
// backing array, cleared, for the jobs to decode into, so a caller that
// reuses v decodes a batch no longer than the last one without allocating.
func DecodeAdmitBatchRequest(data []byte, v *AdmitBatchRequest, in Interner) error {
	spare := v.Jobs[:cap(v.Jobs)]
	clear(spare)
	*v = AdmitBatchRequest{}
	d := decoder{data: data, intern: in}
	err := d.object(batchFields, func(i int) error {
		switch i {
		case 0:
			return d.stringField(&v.Tenant)
		case 1:
			return d.batchJobs(&v.Jobs, spare[:0])
		default:
			return d.econ(&v.Econ)
		}
	})
	if err != nil {
		return err
	}
	return d.end()
}

// batchJobs decodes a "jobs" value into *jobs as encoding/json decodes into
// a slice: null makes it nil; an array decodes into the elements the slice
// already has (so a repeated key merges into them), grows it by zero
// elements and cuts it to the array's length; an empty array makes it a
// fresh empty slice. A nil slice grows into spare, whose elements are zero
// whenever *jobs is nil or empty.
func (d *decoder) batchJobs(jobs *[]api.AdmitBatchJob, spare []api.AdmitBatchJob) error {
	s := *jobs
	if s == nil {
		s = spare
	}
	n, isNull, err := d.array(func(i int) error {
		switch {
		case i == cap(s):
			s = append(s, api.AdmitBatchJob{})
		case i >= len(s):
			s = s[:i+1]
		}
		j := &s[i]
		return d.object(batchJobFields, func(k int) error {
			if k == 0 {
				return d.jobParams(&j.Job)
			}
			return d.stringField(&j.Strategy)
		})
	})
	switch {
	case err != nil:
	case isNull:
		clear(spare[:cap(spare)])
		s = nil
	case n == 0:
		clear(spare[:cap(spare)])
		s = spare
		if s == nil {
			s = []api.AdmitBatchJob{}
		}
	default:
		s = s[:n]
	}
	*jobs = s
	return err
}
