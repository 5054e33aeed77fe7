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

// Hard sanity caps on /v1/replay. They bound the allocations one request can
// force (cluster nodes, one job's tasks, the tasks in flight at once) and keep
// every time the run reports finite (deadlines, start-up delays, task times
// and arrivals); the unbounded studies belong in the offline CLIs.
const (
	simMaxNodes        = 4096
	simMaxSlotsPerNode = 64
	simMaxDeadline     = 1e5 // seconds; also bounds the event horizon, jvmMax and tmin
	// replayMaxArrival is loose because streaming runs exist for
	// long-horizon studies.
	replayMaxArrival = 1e8
	// replayMaxJobTasks bounds one job's map plus reduce tasks.
	replayMaxJobTasks = 5000
	// replayMaxOpenTasks bounds the tasks of the jobs in flight at once: the
	// replay engine's memory tracks them rather than the trace, so a trace
	// whose jobs all arrive together cannot materialize wholesale.
	replayMaxOpenTasks = 50000
)

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
		msg = validateReplayBounds(req, jobs)
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
		tr: traceOf(w),
	}
	finish := s.metrics.replayStarted()
	defer finish()

	_, err := chronos.Replay(r.Context(), req.Config, jobs, chronos.ReplayOptions{
		WindowSeconds: req.WindowSeconds,
		MaxOpenTasks:  replayMaxOpenTasks,
		Observer:      chronos.ReplayObserverFunc(stream.write),
	})
	switch {
	case err == nil:
		// Complete stream.
	case r.Context().Err() != nil:
		// Client is gone, whether or not a line went out; there is no one
		// left to tell, and a gone client is not a bad request.
	case !stream.started:
		// Nothing streamed yet: report as a plain HTTP error.
		s.apiError(w, r, http.StatusBadRequest, "%v", err)
	default:
		// Mid-stream failure after a 200: report in-band and end.
		_ = stream.write(&chronos.ReplayEvent{
			Kind: chronos.EventError, Seq: stream.nextSeq, Error: err.Error(),
		})
	}
}

// takeReplaySlot claims one of the MaxActiveReplays slots, or answers 503
// with Retry-After. Replays are whole-run CPU commitments; bounding them
// keeps a burst from starving the cheap planning endpoints. A true return
// must be paired with releaseReplaySlot.
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
// There is no ceiling on a stream's summed tasks: the engine's memory is
// bounded by the tasks in flight (replayMaxOpenTasks), and wall-clock
// commitment by disconnect cancellation.
func validateReplayBounds(req api.ReplayRequest, jobs []chronos.SimJob) string {
	if req.WindowSeconds != 0 && !(req.WindowSeconds >= replayMinWindow) {
		return fmt.Sprintf("windowSeconds must be 0 (disabled) or >= %g", replayMinWindow)
	}
	c := req.Config
	if c.Nodes < 0 || c.Nodes > simMaxNodes {
		return fmt.Sprintf("nodes must be in [0, %d]", simMaxNodes)
	}
	if c.SlotsPerNode < 0 || c.SlotsPerNode > simMaxSlotsPerNode {
		return fmt.Sprintf("slotsPerNode must be in [0, %d]", simMaxSlotsPerNode)
	}
	if !(c.JVMMin >= 0 && c.JVMMin <= simMaxDeadline && c.JVMMax >= 0 && c.JVMMax <= simMaxDeadline) {
		return fmt.Sprintf("jvmMin and jvmMax must be in [0, %g]", float64(simMaxDeadline))
	}
	return validateSimJobs(jobs)
}

// validateSimJobs checks per-job bounds.
func validateSimJobs(jobs []chronos.SimJob) string {
	for i, j := range jobs {
		if j.Tasks < 1 || j.ReduceTasks < 0 {
			return fmt.Sprintf("job %d: tasks must be >= 1 and reduceTasks >= 0", i)
		}
		if tasks := j.Tasks + j.ReduceTasks; tasks > replayMaxJobTasks {
			return fmt.Sprintf("job %d has %d tasks, limit %d per job", i, tasks, replayMaxJobTasks)
		}
		if !(j.Deadline > 0) || j.Deadline > simMaxDeadline {
			return fmt.Sprintf("job %d: deadline must be in (0, %g]", i, float64(simMaxDeadline))
		}
		if !(j.TMin <= simMaxDeadline && j.ReduceTMin <= simMaxDeadline) {
			return fmt.Sprintf("job %d: tmin and reduceTMin must be at most %g", i, float64(simMaxDeadline))
		}
		if j.Arrival < 0 || j.Arrival > replayMaxArrival {
			return fmt.Sprintf("job %d: arrival must be in [0, %g]", i, float64(replayMaxArrival))
		}
	}
	return ""
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
