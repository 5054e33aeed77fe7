package obs

import (
	"log/slog"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"chronos/internal/jsonfloat"
)

// linePool holds request-line buffers between requests; a line is rendered
// outside the stream's lock and written under it.
var linePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// maxLineRetain keeps one line with an oversized tenant or servedBy string
// from leaving its buffer in the pool.
const maxLineRetain = 16 << 10

// writeRequestLine renders snap and hands the line to the stream in one
// Write, stamped with the request's end. It reports false, having written
// nothing, when the snapshot holds a non-finite float: slog prints an
// "!ERROR:" string there, which the caller's attr path reproduces.
func (h *Handler) writeRequestLine(level slog.Level, snap *Snapshot) bool {
	bp := linePool.Get().(*[]byte)
	buf, err := appendRequestLine((*bp)[:0], snap.End, level, snap)
	if err == nil {
		_, _ = h.out.Write(buf) // like slog, a log write that fails has no one to tell
	}
	if cap(buf) <= maxLineRetain {
		*bp = buf
		linePool.Put(bp)
	}
	return err == nil
}

// appendRequestLine appends the request line for snap, newline included,
// byte for byte as slog's JSON handler prints a record stamped now with
// message "request" and the attrs of appendRequestAttrs.
func appendRequestLine(dst []byte, now time.Time, level slog.Level, snap *Snapshot) ([]byte, error) {
	dst = append(dst, `{"time":"`...)
	dst = now.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","level":"`...)
	dst = append(dst, level.String()...)
	dst = append(dst, `","msg":"request","traceId":`...)
	dst = appendString(dst, snap.ID)
	dst = append(dst, `,"route":`...)
	dst = appendString(dst, snap.Route)
	dst = append(dst, `,"status":`...)
	dst = strconv.AppendInt(dst, int64(snap.Status), 10)
	dst = append(dst, `,"seconds":`...)
	dst, err := jsonfloat.Append(dst, snap.Seconds)
	if err != nil {
		return dst, err
	}
	if snap.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = appendString(dst, snap.Tenant)
	}
	if snap.Cached != nil {
		dst = append(dst, `,"cached":`...)
		dst = strconv.AppendBool(dst, *snap.Cached)
	}
	if snap.ServedBy != "" {
		dst = append(dst, `,"servedBy":`...)
		dst = appendString(dst, snap.ServedBy)
	}
	if snap.ForwardHop {
		dst = append(dst, `,"forwardHop":true`...)
	}
	open := false
	for s := Stage(0); s < NumStages; s++ {
		if snap.StageCounts[s] == 0 {
			continue
		}
		if open {
			dst = append(dst, ',')
		} else {
			dst = append(dst, `,"stages":{`...)
			open = true
		}
		dst = append(dst, '"')
		dst = append(dst, stageNames[s]...)
		dst = append(dst, `":`...)
		if dst, err = jsonfloat.Append(dst, snap.StageSeconds(s)); err != nil {
			return dst, err
		}
	}
	if open {
		dst = append(dst, '}')
	}
	return append(dst, "}\n"...), nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a quoted JSON string escaped as slog's JSON
// handler escapes it: encoding/json's rules without the HTML escapes and
// without the \b and \f short forms. Quote, backslash and control bytes are
// escaped, invalid UTF-8 becomes \ufffd and U+2028/U+2029 are written as
// escapes, so no string can end the line or the object early.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
