package hotjson

import (
	"fmt"
	"sort"
	"strconv"
	"unicode/utf8"

	"chronos"
	"chronos/internal/jsonfloat"
)

const hexDigits = "0123456789abcdef"

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

// writer appends JSON into buf and remembers the first error, so a struct's
// fields read straight down and the caller checks once at the end. Each
// method takes the literal bytes that precede its value — separator, quoted
// key and colon — which puts every wire name in exactly one place.
type writer struct {
	buf []byte
	err error
}

func (w *writer) raw(s string) { w.buf = append(w.buf, s...) }

func (w *writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *writer) float(key string, f float64) {
	w.raw(key)
	var err error
	if w.buf, err = jsonfloat.Append(w.buf, f); err != nil {
		w.fail(err)
	}
}

func (w *writer) int(key string, n int) {
	w.raw(key)
	w.buf = strconv.AppendInt(w.buf, int64(n), 10)
}

func (w *writer) bool(key string, b bool) {
	w.raw(key)
	w.buf = strconv.AppendBool(w.buf, b)
}

func (w *writer) str(key, s string) {
	w.raw(key)
	w.buf = appendString(w.buf, s)
}

// done closes the top-level object and hands back the buffer with the first
// error any field hit.
func (w *writer) done() ([]byte, error) {
	w.raw("}")
	return w.buf, w.err
}

// plan writes p as json.Marshal would, byte for byte; an out-of-range
// strategy is an error exactly as in Strategy.MarshalJSON.
func (w *writer) plan(key string, p *chronos.Plan) {
	if p.Strategy < chronos.Clone || p.Strategy > chronos.Mantri {
		w.fail(fmt.Errorf("chronos: cannot marshal invalid strategy %d", int(p.Strategy)))
	}
	w.raw(key)
	w.raw(`{"strategy":"`)
	w.raw(p.Strategy.String())
	w.int(`","r":`, p.R)
	w.float(`,"pocd":`, p.PoCD)
	w.float(`,"machineTime":`, p.MachineTime)
	w.float(`,"cost":`, p.Cost)
	w.float(`,"utility":`, p.Utility)
	w.raw("}")
}

// AppendPlan appends p, the plan object alone, as json.Marshal would, byte
// for byte.
func AppendPlan(dst []byte, p *chronos.Plan) ([]byte, error) {
	w := writer{buf: dst}
	w.plan("", p)
	return w.buf, w.err
}

// PlanResponseHead is what a PlanResponse's encoding holds before its plan
// object; AppendPlanResponseTail writes what follows it. Between them goes
// AppendPlan's output, or a copy of it kept from an earlier response.
const PlanResponseHead = `{"plan":`

// AppendPlanResponseTail appends the rest of a PlanResponse after its plan
// object.
func AppendPlanResponseTail(dst []byte, cached bool) []byte {
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, cached)
	return append(dst, '}')
}

// AppendPlanResponse appends r as json.Marshal would, byte for byte.
func AppendPlanResponse(dst []byte, r *PlanResponse) ([]byte, error) {
	dst, err := AppendPlan(append(dst, PlanResponseHead...), &r.Plan)
	return AppendPlanResponseTail(dst, r.Cached), err
}

// AppendAdmitResponse appends r as json.Marshal would, byte for byte.
func AppendAdmitResponse(dst []byte, r *AdmitResponse) ([]byte, error) {
	w := writer{buf: dst}
	w.bool(`{"admitted":`, r.Admitted)
	w.str(`,"tenant":`, r.Tenant)
	if r.Plan != nil {
		w.plan(`,"plan":`, r.Plan)
	}
	if r.Reason != "" {
		w.str(`,"reason":`, r.Reason)
	}
	w.float(`,"budgetRemaining":`, r.BudgetRemaining)
	return w.done()
}

// AppendAdmitBatchResponse appends r as json.Marshal would, byte for byte.
func AppendAdmitBatchResponse(dst []byte, r *AdmitBatchResponse) ([]byte, error) {
	w := writer{buf: dst}
	w.str(`{"tenant":`, r.Tenant)
	if r.Results == nil {
		w.raw(`,"results":null`)
	} else {
		w.raw(`,"results":[`)
		for i := range r.Results {
			res := &r.Results[i]
			if i > 0 {
				w.raw(",")
			}
			w.bool(`{"admitted":`, res.Admitted)
			if res.Plan != nil {
				w.plan(`,"plan":`, res.Plan)
			}
			if res.Reason != "" {
				w.str(`,"reason":`, res.Reason)
			}
			w.raw("}")
		}
		w.raw("]")
	}
	w.int(`,"admitted":`, r.Admitted)
	w.float(`,"budgetRemaining":`, r.BudgetRemaining)
	return w.done()
}

func (w *writer) jobEvent(key string, ev *chronos.ReplayJobEvent) {
	w.raw(key)
	w.int(`{"id":`, ev.ID)
	w.str(`,"strategy":`, ev.Strategy)
	w.int(`,"tasks":`, ev.Tasks)
	if ev.ReduceTasks != 0 {
		w.int(`,"reduceTasks":`, ev.ReduceTasks)
	}
	w.float(`,"arrival":`, ev.Arrival)
	w.float(`,"deadline":`, ev.Deadline)
	if ev.R != nil {
		w.int(`,"r":`, *ev.R)
	}
	if ev.ReduceR != nil {
		w.int(`,"reduceR":`, *ev.ReduceR)
	}
	w.raw("}")
}

func (w *writer) outcome(key string, o *chronos.ReplayOutcome) {
	w.raw(key)
	w.float(`{"finish":`, o.Finish)
	w.bool(`,"metDeadline":`, o.MetDeadline)
	w.float(`,"lateness":`, o.Lateness)
	w.float(`,"machineTime":`, o.MachineTime)
	w.float(`,"cost":`, o.Cost)
	w.raw("}")
}

// intIntMap writes m with keys sorted by their decimal string form, matching
// encoding/json's map key ordering.
func (w *writer) intIntMap(key string, m map[int]int) {
	type kv struct {
		s string
		v int
	}
	kvs := make([]kv, 0, len(m))
	for k, v := range m {
		kvs = append(kvs, kv{strconv.Itoa(k), v})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].s < kvs[j].s })
	w.raw(key)
	w.raw("{")
	for i, e := range kvs {
		if i > 0 {
			w.raw(",")
		}
		w.raw(`"`)
		w.raw(e.s)
		w.int(`":`, e.v)
	}
	w.raw("}")
}

func (w *writer) summary(key string, s *chronos.ReplaySummary) {
	w.raw(key)
	w.int(`{"jobs":`, s.Jobs)
	w.int(`,"submitted":`, s.Submitted)
	w.int(`,"met":`, s.Met)
	w.float(`,"pocd":`, s.PoCD)
	w.float(`,"meanMachineTime":`, s.MeanMachineTime)
	w.float(`,"meanCost":`, s.MeanCost)
	if len(s.RHistogram) != 0 {
		w.intIntMap(`,"rHistogram":`, s.RHistogram)
	}
	w.raw("}")
}

func (w *writer) window(key string, win *chronos.ReplayWindow) {
	w.raw(key)
	w.int(`{"index":`, win.Index)
	w.float(`,"start":`, win.Start)
	w.float(`,"end":`, win.End)
	w.int(`,"completed":`, win.Completed)
	w.summary(`,"running":`, &win.Running)
	w.raw("}")
}

// AppendReplayEvent appends ev as json.Marshal would, byte for byte.
func AppendReplayEvent(dst []byte, ev *chronos.ReplayEvent) ([]byte, error) {
	w := writer{buf: dst}
	w.str(`{"event":`, string(ev.Kind))
	w.raw(`,"seq":`)
	w.buf = strconv.AppendUint(w.buf, ev.Seq, 10)
	w.float(`,"time":`, ev.Time)
	if ev.Job != nil {
		w.jobEvent(`,"job":`, ev.Job)
	}
	if ev.Outcome != nil {
		w.outcome(`,"outcome":`, ev.Outcome)
	}
	if ev.PoCD != nil {
		w.float(`,"pocd":`, *ev.PoCD)
	}
	if ev.Window != nil {
		w.window(`,"window":`, ev.Window)
	}
	if ev.Summary != nil {
		w.summary(`,"summary":`, ev.Summary)
	}
	if ev.TraceID != "" {
		w.str(`,"traceId":`, ev.TraceID)
	}
	if ev.Error != "" {
		w.str(`,"error":`, ev.Error)
	}
	return w.done()
}
