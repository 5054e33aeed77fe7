package hotjson

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"

	"chronos"
)

const hexDigits = "0123456789abcdef"

// appendFloat appends f exactly as encoding/json does: ES6 number-to-string
// conversion ('f' format, switching to 'e' outside [1e-6, 1e21) with the
// zero-padded exponent trimmed). Inf and NaN are an error, as in
// json.Marshal.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("hotjson: unsupported float value %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendString appends s as a quoted JSON string with encoding/json's
// default escaping: control characters, quote and backslash, the
// HTML-sensitive < > &, U+2028/U+2029, and � for invalid UTF-8.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
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
		// U+2028 (line separator) and U+2029 (paragraph separator) are
		// valid JSON but break JSONP; encoding/json escapes them
		// unconditionally.
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
	dst = append(dst, '"')
	return dst
}

// appendStrategy appends the strategy's canonical quoted name, erroring on
// out-of-range values exactly like Strategy.MarshalJSON.
func appendStrategy(dst []byte, s chronos.Strategy) ([]byte, error) {
	if s < chronos.Clone || s > chronos.LATE {
		return dst, fmt.Errorf("chronos: cannot marshal invalid strategy %d", int(s))
	}
	dst = append(dst, '"')
	dst = append(dst, s.String()...)
	return append(dst, '"'), nil
}

// appendPlan appends p as json.Marshal would, byte for byte.
func appendPlan(dst []byte, p *chronos.Plan) ([]byte, error) {
	var err error
	dst = append(dst, `{"strategy":`...)
	if dst, err = appendStrategy(dst, p.Strategy); err != nil {
		return dst, err
	}
	dst = append(dst, `,"r":`...)
	dst = strconv.AppendInt(dst, int64(p.R), 10)
	dst = append(dst, `,"pocd":`...)
	if dst, err = appendFloat(dst, p.PoCD); err != nil {
		return dst, err
	}
	dst = append(dst, `,"machineTime":`...)
	if dst, err = appendFloat(dst, p.MachineTime); err != nil {
		return dst, err
	}
	dst = append(dst, `,"cost":`...)
	if dst, err = appendFloat(dst, p.Cost); err != nil {
		return dst, err
	}
	dst = append(dst, `,"utility":`...)
	if dst, err = appendFloat(dst, p.Utility); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// AppendPlanResponse appends r as json.Marshal would, byte for byte.
func AppendPlanResponse(dst []byte, r *PlanResponse) ([]byte, error) {
	var err error
	dst = append(dst, `{"plan":`...)
	if dst, err = appendPlan(dst, &r.Plan); err != nil {
		return dst, err
	}
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, r.Cached)
	if r.BudgetRemaining != nil {
		dst = append(dst, `,"budgetRemaining":`...)
		if dst, err = appendFloat(dst, *r.BudgetRemaining); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// AppendAdmitResponse appends r as json.Marshal would, byte for byte.
func AppendAdmitResponse(dst []byte, r *AdmitResponse) ([]byte, error) {
	var err error
	dst = append(dst, `{"admitted":`...)
	dst = strconv.AppendBool(dst, r.Admitted)
	dst = append(dst, `,"tenant":`...)
	dst = appendString(dst, r.Tenant)
	if r.Plan != nil {
		dst = append(dst, `,"plan":`...)
		if dst, err = appendPlan(dst, r.Plan); err != nil {
			return dst, err
		}
	}
	if r.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendString(dst, r.Reason)
	}
	dst = append(dst, `,"budgetRemaining":`...)
	if dst, err = appendFloat(dst, r.BudgetRemaining); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

func appendJobEvent(dst []byte, ev *chronos.ReplayJobEvent) ([]byte, error) {
	var err error
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(ev.ID), 10)
	dst = append(dst, `,"strategy":`...)
	dst = appendString(dst, ev.Strategy)
	dst = append(dst, `,"tasks":`...)
	dst = strconv.AppendInt(dst, int64(ev.Tasks), 10)
	if ev.ReduceTasks != 0 {
		dst = append(dst, `,"reduceTasks":`...)
		dst = strconv.AppendInt(dst, int64(ev.ReduceTasks), 10)
	}
	dst = append(dst, `,"arrival":`...)
	if dst, err = appendFloat(dst, ev.Arrival); err != nil {
		return dst, err
	}
	dst = append(dst, `,"deadline":`...)
	if dst, err = appendFloat(dst, ev.Deadline); err != nil {
		return dst, err
	}
	if ev.R != nil {
		dst = append(dst, `,"r":`...)
		dst = strconv.AppendInt(dst, int64(*ev.R), 10)
	}
	if ev.ReduceR != nil {
		dst = append(dst, `,"reduceR":`...)
		dst = strconv.AppendInt(dst, int64(*ev.ReduceR), 10)
	}
	return append(dst, '}'), nil
}

func appendOutcome(dst []byte, o *chronos.ReplayOutcome) ([]byte, error) {
	var err error
	dst = append(dst, `{"finish":`...)
	if dst, err = appendFloat(dst, o.Finish); err != nil {
		return dst, err
	}
	dst = append(dst, `,"metDeadline":`...)
	dst = strconv.AppendBool(dst, o.MetDeadline)
	dst = append(dst, `,"lateness":`...)
	if dst, err = appendFloat(dst, o.Lateness); err != nil {
		return dst, err
	}
	dst = append(dst, `,"machineTime":`...)
	if dst, err = appendFloat(dst, o.MachineTime); err != nil {
		return dst, err
	}
	dst = append(dst, `,"cost":`...)
	if dst, err = appendFloat(dst, o.Cost); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// appendIntIntMap appends m with keys sorted by their decimal string form,
// matching encoding/json's map key ordering.
func appendIntIntMap(dst []byte, m map[int]int) []byte {
	type kv struct {
		s string
		v int
	}
	kvs := make([]kv, 0, len(m))
	for k, v := range m {
		kvs = append(kvs, kv{strconv.Itoa(k), v})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].s < kvs[j].s })
	dst = append(dst, '{')
	for i := range kvs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = append(dst, kvs[i].s...)
		dst = append(dst, `":`...)
		dst = strconv.AppendInt(dst, int64(kvs[i].v), 10)
	}
	return append(dst, '}')
}

func appendSummary(dst []byte, s *chronos.ReplaySummary) ([]byte, error) {
	var err error
	dst = append(dst, `{"jobs":`...)
	dst = strconv.AppendInt(dst, int64(s.Jobs), 10)
	dst = append(dst, `,"submitted":`...)
	dst = strconv.AppendInt(dst, int64(s.Submitted), 10)
	dst = append(dst, `,"met":`...)
	dst = strconv.AppendInt(dst, int64(s.Met), 10)
	dst = append(dst, `,"pocd":`...)
	if dst, err = appendFloat(dst, s.PoCD); err != nil {
		return dst, err
	}
	dst = append(dst, `,"meanMachineTime":`...)
	if dst, err = appendFloat(dst, s.MeanMachineTime); err != nil {
		return dst, err
	}
	dst = append(dst, `,"meanCost":`...)
	if dst, err = appendFloat(dst, s.MeanCost); err != nil {
		return dst, err
	}
	if len(s.RHistogram) != 0 {
		dst = append(dst, `,"rHistogram":`...)
		dst = appendIntIntMap(dst, s.RHistogram)
	}
	return append(dst, '}'), nil
}

func appendWindow(dst []byte, w *chronos.ReplayWindow) ([]byte, error) {
	var err error
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(w.Index), 10)
	dst = append(dst, `,"start":`...)
	if dst, err = appendFloat(dst, w.Start); err != nil {
		return dst, err
	}
	dst = append(dst, `,"end":`...)
	if dst, err = appendFloat(dst, w.End); err != nil {
		return dst, err
	}
	dst = append(dst, `,"completed":`...)
	dst = strconv.AppendInt(dst, int64(w.Completed), 10)
	dst = append(dst, `,"running":`...)
	if dst, err = appendSummary(dst, &w.Running); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// AppendReplayEvent appends ev as json.Marshal would, byte for byte.
func AppendReplayEvent(dst []byte, ev *chronos.ReplayEvent) ([]byte, error) {
	var err error
	dst = append(dst, `{"event":`...)
	dst = appendString(dst, string(ev.Kind))
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	dst = append(dst, `,"time":`...)
	if dst, err = appendFloat(dst, ev.Time); err != nil {
		return dst, err
	}
	if ev.Job != nil {
		dst = append(dst, `,"job":`...)
		if dst, err = appendJobEvent(dst, ev.Job); err != nil {
			return dst, err
		}
	}
	if ev.Outcome != nil {
		dst = append(dst, `,"outcome":`...)
		if dst, err = appendOutcome(dst, ev.Outcome); err != nil {
			return dst, err
		}
	}
	if ev.PoCD != nil {
		dst = append(dst, `,"pocd":`...)
		if dst, err = appendFloat(dst, *ev.PoCD); err != nil {
			return dst, err
		}
	}
	if ev.Window != nil {
		dst = append(dst, `,"window":`...)
		if dst, err = appendWindow(dst, ev.Window); err != nil {
			return dst, err
		}
	}
	if ev.Summary != nil {
		dst = append(dst, `,"summary":`...)
		if dst, err = appendSummary(dst, ev.Summary); err != nil {
			return dst, err
		}
	}
	if ev.TraceID != "" {
		dst = append(dst, `,"traceId":`...)
		dst = appendString(dst, ev.TraceID)
	}
	if ev.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = appendString(dst, ev.Tenant)
	}
	if ev.Needed != 0 {
		dst = append(dst, `,"needed":`...)
		if dst, err = appendFloat(dst, ev.Needed); err != nil {
			return dst, err
		}
	}
	if ev.Remaining != nil {
		dst = append(dst, `,"remaining":`...)
		if dst, err = appendFloat(dst, *ev.Remaining); err != nil {
			return dst, err
		}
	}
	if ev.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, ev.Error)
	}
	return append(dst, '}'), nil
}
