package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
)

// Handler is the log stream chronosd owns: slog's JSON handler over a
// mutex-guarded writer. Operational logs go through slog exactly as they
// would through slog.NewJSONHandler; a Logger built on a Handler appends
// its request lines by hand and writes them under the same lock, so the two
// kinds of line never interleave. A logger derived with With or WithGroup
// is slog's own handler again (still serialized with the stream, no longer
// recognized by FromSlog), which keeps its extra attrs on the request line.
type Handler struct {
	slog.Handler
	out *lockedWriter
}

// NewHandler builds the JSON handler for w, logging at level and above.
func NewHandler(w io.Writer, level slog.Leveler) *Handler {
	out := &lockedWriter{w: w}
	return &Handler{Handler: slog.NewJSONHandler(out, &slog.HandlerOptions{Level: level}), out: out}
}

// lockedWriter makes each Write one uninterrupted write to w.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// Logger is the structured request logger: a slog JSON logger plus a 1-in-N
// sampler for per-request lines. A line costs well under a microsecond, so
// the sampler is for volume, not CPU: every request writes about 150 bytes
// (more with a stage breakdown), and a fleet that cannot ship 150 B times
// its request rate raises -log-sample. Operational (non-request) logs bypass
// the sampler via Op. A nil *Logger disables logging entirely.
type Logger struct {
	sl     *slog.Logger
	sample uint64
	seq    atomic.Uint64
}

// NewLogger builds a request logger writing JSON lines to w at the given
// level, logging every sample-th request line (sample <= 1 logs all).
func NewLogger(w io.Writer, level slog.Level, sample int) *Logger {
	return FromSlog(slog.New(NewHandler(w, level)), sample)
}

// FromSlog wraps an existing slog logger (cmd/chronosd builds one for its
// operational logs and shares it with the server) with request sampling.
// Request lines take the hand renderer when sl was built on NewHandler and
// slog's attr path, with the same bytes, on anyone else's handler.
func FromSlog(sl *slog.Logger, sample int) *Logger {
	if sl == nil {
		return nil
	}
	if sample < 1 {
		sample = 1
	}
	return &Logger{sl: sl, sample: uint64(sample)}
}

// Op returns the underlying unsampled slog logger for operational events
// (startup, reloads, shutdown), or nil on a nil receiver.
func (l *Logger) Op() *slog.Logger {
	if l == nil {
		return nil
	}
	return l.sl
}

// Request emits one sampled request line from a finished snapshot. Server
// errors (5xx) always log, at ERROR and so at every -log-level — when
// something broke, the trail matters more than the sampling budget; other
// lines log 1-in-sample at INFO. The stage breakdown is attached as a group
// with per-stage seconds, so a logged line carries the same decomposition
// /debug/traces shows. The line is written before Request returns: nothing
// is buffered across requests.
func (l *Logger) Request(snap *Snapshot) {
	if l == nil || snap == nil {
		return
	}
	level := slog.LevelInfo
	if snap.Status >= 500 {
		level = slog.LevelError
	} else if l.seq.Add(1)%l.sample != 0 {
		return
	}
	if !l.sl.Enabled(context.Background(), level) {
		return
	}
	if h, ok := l.sl.Handler().(*Handler); ok && h.writeRequestLine(level, snap) {
		return
	}
	var attrs [9]slog.Attr // every key the line can have; the caller's array keeps them off the heap
	l.sl.LogAttrs(context.Background(), level, "request", appendRequestAttrs(attrs[:0], snap)...)
}

// appendRequestAttrs is the request line as slog attrs: the path for a
// logger on a foreign handler, and the reference appendRequestLine is tested
// against.
func appendRequestAttrs(attrs []slog.Attr, snap *Snapshot) []slog.Attr {
	attrs = append(attrs,
		slog.String("traceId", snap.ID),
		slog.String("route", snap.Route),
		slog.Int("status", snap.Status),
		slog.Float64("seconds", snap.Seconds),
	)
	if snap.Tenant != "" {
		attrs = append(attrs, slog.String("tenant", snap.Tenant))
	}
	if snap.Cached != nil {
		attrs = append(attrs, slog.Bool("cached", *snap.Cached))
	}
	if snap.ServedBy != "" {
		attrs = append(attrs, slog.String("servedBy", snap.ServedBy))
	}
	if snap.ForwardHop {
		attrs = append(attrs, slog.Bool("forwardHop", true))
	}
	var stages []any
	for s := Stage(0); s < NumStages; s++ {
		if snap.StageCounts[s] != 0 {
			stages = append(stages, slog.Float64(s.String(), snap.StageSeconds(s)))
		}
	}
	if stages != nil {
		attrs = append(attrs, slog.Group("stages", stages...))
	}
	return attrs
}

// ParseLevel maps the -log-level flag vocabulary onto slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
}
