package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"chronos"
	"chronos/api"
	"chronos/internal/hotjson"
	"chronos/internal/obs"
)

// replayMaxArrival bounds arrivals for /v1/replay. Streaming runs exist for
// long-horizon studies, so this is far looser than the /v1/simulate cap.
const replayMaxArrival = 1e8

// replayMinWindow is the smallest accepted windowSeconds (0 still disables
// windows). Sub-second windows over HTTP are pure event spam and a
// degenerate width must not be able to grind the boundary arithmetic.
const replayMinWindow = 1.0

// handleReplay serves POST /v1/replay: an NDJSON stream of replay events
// (job_planned, job_completed, window_summary, replay_summary — see the
// internal/replay catalog), flushed in batches (see ndjsonStream). The
// request context is checked between simulation events, so a disconnected
// client stops the replay promptly instead of leaving it running to
// completion.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	var req api.ReplayRequest
	if !s.decode(w, r, &req) {
		return
	}
	jobs, msg := s.resolveReplayJobs(req)
	if msg == "" {
		msg = validateReplayBounds(s.cfg, req, jobs)
	}
	if msg != "" {
		s.apiError(w, r, http.StatusBadRequest, "%s", msg)
		return
	}
	if !s.takeReplaySlot(w, r) {
		return
	}
	defer s.releaseReplaySlot()

	// The response header is written lazily at the first event, so setup
	// failures (bad distribution parameters, unknown strategy) still get a
	// clean 400 instead of a broken 200 stream.
	stream := &ndjsonStream{
		w:  w,
		rc: http.NewResponseController(w),
		m:  s.metrics,
		tr: obs.FromContext(r.Context()),
	}
	finish := s.metrics.replayStarted()
	defer finish()

	// The replay engine's memory tracks in-flight tasks; cap them with the
	// same ceiling /v1/simulate puts on a whole run, so a trace whose jobs
	// all arrive at once cannot materialize wholesale.
	_, err := chronos.Replay(r.Context(), req.Config, jobs, chronos.ReplayOptions{
		WindowSeconds: req.WindowSeconds,
		MaxOpenTasks:  s.cfg.MaxSimTotalTasks,
		Observer:      chronos.ReplayObserverFunc(stream.write),
	})
	switch {
	case err == nil:
		// Complete stream.
	case !stream.started:
		// Nothing streamed yet: report as a plain HTTP error.
		s.apiError(w, r, http.StatusBadRequest, "%v", err)
	case r.Context().Err() != nil:
		// Client is gone; there is no one left to tell.
	default:
		// Mid-stream failure after a 200: report in-band and end.
		_ = stream.write(&chronos.ReplayEvent{
			Kind: chronos.EventError, Seq: stream.nextSeq, Error: err.Error(),
		})
	}
}

// takeReplaySlot claims one of the MaxActiveReplays slots /v1/replay and
// /v1/simulate share, or answers 503 with Retry-After. Simulations are
// whole-run CPU commitments; bounding them keeps a burst from starving the
// cheap planning endpoints. A true return must be paired with
// releaseReplaySlot.
func (s *Server) takeReplaySlot(w http.ResponseWriter, r *http.Request) bool {
	select {
	case s.replaySem <- struct{}{}:
		return true
	default:
		w.Header().Set("Retry-After", "1")
		s.apiError(w, r, http.StatusServiceUnavailable,
			"%d replays already running, limit %d", len(s.replaySem), cap(s.replaySem))
		return false
	}
}

// releaseReplaySlot returns a slot takeReplaySlot claimed.
func (s *Server) releaseReplaySlot() { <-s.replaySem }

// resolveReplayJobs materializes the job stream from whichever source the
// request names. A non-empty message is a 400.
func (s *Server) resolveReplayJobs(req api.ReplayRequest) ([]chronos.SimJob, string) {
	sources := 0
	for _, set := range []bool{len(req.Jobs) > 0, req.Trace != nil, req.Benchmark != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, "exactly one of jobs, trace, or benchmark must be given"
	}
	switch {
	case req.Trace != nil:
		t := req.Trace
		if t.Jobs < 1 || t.Jobs > s.cfg.MaxReplayJobs {
			return nil, fmt.Sprintf("trace.jobs must be in [1, %d]", s.cfg.MaxReplayJobs)
		}
		jobs, err := chronos.SyntheticTrace(*t)
		if err != nil {
			return nil, err.Error()
		}
		return jobs, ""
	case req.Benchmark != nil:
		b := req.Benchmark
		if b.Jobs < 1 || b.Jobs > s.cfg.MaxReplayJobs {
			return nil, fmt.Sprintf("benchmark.jobs must be in [1, %d]", s.cfg.MaxReplayJobs)
		}
		if b.Tasks < 1 {
			return nil, "benchmark.tasks must be >= 1"
		}
		if b.SpacingSeconds < 0 {
			return nil, "benchmark.spacingSeconds must be >= 0"
		}
		for _, bench := range chronos.Benchmarks() {
			if strings.EqualFold(bench.Name, b.Name) {
				return bench.Jobs(b.Jobs, b.Tasks, b.SpacingSeconds), ""
			}
		}
		return nil, fmt.Sprintf("unknown benchmark %q", b.Name)
	default:
		if len(req.Jobs) > s.cfg.MaxReplayJobs {
			return nil, fmt.Sprintf("replay has %d jobs, limit %d", len(req.Jobs), s.cfg.MaxReplayJobs)
		}
		return req.Jobs, ""
	}
}

// validateReplayBounds applies the serving sanity caps to a resolved stream.
// Unlike /v1/simulate there is no total-task ceiling: the streaming engine's
// memory is bounded by in-flight jobs, and wall-clock commitment is bounded
// by disconnect cancellation.
func validateReplayBounds(cfg Config, req api.ReplayRequest, jobs []chronos.SimJob) string {
	if req.WindowSeconds != 0 && !(req.WindowSeconds >= replayMinWindow) {
		return fmt.Sprintf("windowSeconds must be 0 (disabled) or >= %g", replayMinWindow)
	}
	if msg := validateSimConfigBounds(req.Config); msg != "" {
		return msg
	}
	return validateSimJobs(cfg, jobs, replayMaxArrival, 0)
}

// --- NDJSON plumbing ------------------------------------------------------

// replayFlushEvery is the longest the stream holds written events back while
// more are being produced. A flush per line is a write(2) and a client
// wake-up per event — an eighth of a stream's wall time when the simulator
// emits thousands of events a second — and nothing reading a replay needs
// finer than this.
const replayFlushEvery = 5 * time.Millisecond

// ndjsonStream writes one JSON event per line. The 200 header goes out with
// the first event, which is flushed at once; after that a write flushes only
// if replayFlushEvery has passed since the last flush, and the events that
// end a stream (replay_summary, error) always flush; what
// is written between flushes sits in net/http's 4 KiB buffer. Each write's
// encode+write+flush accumulates into the request trace's replay_emit span,
// and the final replay_summary is stamped with the trace ID so the streamed
// result correlates with the server-side logs.
type ndjsonStream struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	m       *serverMetrics
	tr      *obs.Trace
	started bool
	// nextSeq is one past the last line written: the seq of an error event
	// the stream adds itself.
	nextSeq   uint64
	lastFlush time.Time
	// buf is the stream's reusable encode buffer: each event is encoded by
	// the reflection-free hotjson codec into the previous event's capacity,
	// so a million-event replay performs no per-event allocation.
	buf []byte
}

func (st *ndjsonStream) write(ev *chronos.ReplayEvent) error {
	emitStart := time.Now()
	defer func() { st.tr.Observe(obs.StageReplayEmit, time.Since(emitStart)) }()
	if ev.Kind == chronos.EventReplaySummary && st.tr != nil {
		ev.TraceID = st.tr.ID
	}
	if !st.started {
		st.started = true
		h := st.w.Header()
		h.Set("Content-Type", "application/x-ndjson")
		h.Set("Cache-Control", "no-store")
		// Replays legitimately outlive the server-wide write timeout;
		// disconnects are caught via the request context instead.
		_ = st.rc.SetWriteDeadline(time.Time{})
		st.w.WriteHeader(http.StatusOK)
	}
	line, err := hotjson.AppendReplayEvent(st.buf[:0], ev)
	if err != nil {
		return err
	}
	// Only a line that encoded takes its number, so an error event after a
	// dropped one keeps seq gap-free.
	st.nextSeq = ev.Seq + 1
	line = append(line, '\n')
	st.buf = line
	if _, err := st.w.Write(line); err != nil {
		return err
	}
	st.m.replayEmit(ev.Kind == chronos.EventJobCompleted)
	switch ev.Kind {
	case chronos.EventReplaySummary, chronos.EventError:
	default:
		// lastFlush is zero before the first event, so that one flushes.
		if emitStart.Sub(st.lastFlush) < replayFlushEvery {
			return nil
		}
	}
	st.lastFlush = emitStart
	// Flush errors surface on the next Write; ErrNotSupported just means a
	// buffering middleware will batch the stream.
	_ = st.rc.Flush()
	return nil
}
