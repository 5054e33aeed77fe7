package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// recorder holds what one client saw in one phase: a latency and the
// answer's bytes per request, judged after the phase so that checking costs
// the servers no CPU while they are being measured.
type recorder struct {
	lat    []int64 // ns, request written (or, paced, due) to answer read
	start  []int64 // ns since the phase began
	status []int16 // 0 for a transport error
	kind   []opKind
	bodies [][]byte
	chunk  []byte // the arena the bodies are cut from
	// The rest of a span, recorded only in traced phases.
	traced  bool
	due     []int64 // ns since the phase began (paced phases; else = start)
	replica []uint8
}

const (
	arenaChunk = 8 << 20
	// arenaRoom is the free space a request is guaranteed before it is sent,
	// so reading an answer never grows the arena while the clock runs.
	arenaRoom = 64 << 10
)

func (r *recorder) room() []byte {
	if cap(r.chunk)-len(r.chunk) < arenaRoom {
		r.chunk = make([]byte, 0, arenaChunk)
	}
	return r.chunk
}

func (r *recorder) add(kind opKind, replica int, status int, lat time.Duration, body []byte, start, due time.Duration) {
	r.lat = append(r.lat, int64(lat))
	r.start = append(r.start, int64(start))
	r.status = append(r.status, int16(status))
	r.kind = append(r.kind, kind)
	r.bodies = append(r.bodies, body)
	if r.traced {
		r.due = append(r.due, int64(due))
		r.replica = append(r.replica, uint8(replica))
	}
}

// loader is one load-generating goroutine's connections, one per replica.
type loader struct {
	addrs []string
	conns []*conn
	buf   []byte
}

func newLoader(addrs []string) (*loader, error) {
	c := &loader{addrs: addrs, conns: make([]*conn, len(addrs))}
	for i, a := range addrs {
		cn, err := dial(a)
		if err != nil {
			c.close()
			return nil, err
		}
		c.conns[i] = cn
	}
	return c, nil
}

func (c *loader) close() {
	for _, cn := range c.conns {
		if cn != nil {
			cn.close()
		}
	}
}

// send issues one request and records it; false means the client is done,
// because its stream ended or its server is gone. A transport error is
// recorded as status 0 and the connection is replaced.
func (c *loader) send(s stream, rec *recorder, phaseStart time.Time, due time.Duration) bool {
	req, replica, kind, ok := s.next(c.buf[:0])
	if !ok {
		return false
	}
	c.buf = req
	arena := rec.room()
	t0 := time.Now()
	status, out, err := c.conns[replica].do(req, arena)
	lat := time.Since(t0)
	start := t0.Sub(phaseStart)
	if due < 0 {
		due = start
	} else {
		lat = t0.Add(lat).Sub(phaseStart.Add(due)) // open loop: from when it was due
	}
	if err != nil {
		rec.add(kind, replica, 0, lat, []byte(err.Error()), start, due)
		c.conns[replica].close()
		cn, derr := dial(c.addrs[replica])
		if derr != nil {
			return false // nothing listens there any more: stop, do not spin
		}
		c.conns[replica] = cn
		return true
	}
	rec.chunk = out
	rec.add(kind, replica, status, lat, out[len(arena):len(out):len(out)], start, due)
	return true
}

// windowLength is the slice of a measured phase each gated metric is
// computed over; the run reports the median slice. On a shared host the CPU
// itself runs up to a third slower for seconds at a time, and a median over
// slices is steadier against that than one figure for the whole phase.
const windowLength = time.Second

// A measured phase alternates bursts: workloadBurst of the workload's
// requests, then yardstickBurst of the reference server's, so that both see
// the same host a tenth of a second apart.
const (
	workloadBurst  = 80 * time.Millisecond
	yardstickBurst = 20 * time.Millisecond
)

// mark is a slice boundary of a measured phase: cumulative readings.
type mark struct {
	at      time.Duration // since the phase began
	busy    time.Duration // spent in the workload's bursts
	ticks   uint64        // the servers' CPU ticks
	peakKB  uint64        // not cumulative: the servers' peak RSS since the mark before
	refOps  int           // answers from the reference server
	refBusy time.Duration // spent in its bursts
	refP99  int64         // not cumulative: the 99th percentile of its latencies since the mark before, ns
}

// phase is one closed-loop phase as the clients saw it.
type phase struct {
	recs  []*recorder
	wall  time.Duration
	marks []mark // measured phases only: one per windowLength, the first at 0
}

// closedLoop runs every stream on its own client for d: each sends its next
// request when the previous answer has arrived.
func closedLoop(addrs []string, streams []stream, d time.Duration, traced bool) (*phase, error) {
	ph := &phase{recs: make([]*recorder, len(streams))}
	cls := make([]*loader, len(streams))
	for i := range streams {
		cl, err := newLoader(addrs)
		if err != nil {
			return nil, err
		}
		defer cl.close()
		cls[i] = cl
		ph.recs[i] = &recorder{traced: traced}
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range streams {
		wg.Add(1)
		go func(cl *loader, s stream, rec *recorder) {
			defer wg.Done()
			for time.Now().Before(deadline) && cl.send(s, rec, start, -1) {
			}
		}(cls[i], streams[i], ph.recs[i])
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph, nil
}

// measuredLoop is the gated phase: one closed-loop client sends s for d in
// bursts, the yardstick runs between them, and every windowLength the
// servers' CPU ticks and peak RSS are read with probe. Everything happens on
// the calling goroutine, so nothing competes with the servers but the client
// itself.
func measuredLoop(addrs []string, s stream, y *yardstick, d time.Duration, probe func() (usage, error)) (*phase, error) {
	cl, err := newLoader(addrs)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	rec := &recorder{}
	ph := &phase{recs: []*recorder{rec}}
	var cur mark
	u, err := probe()
	if err != nil {
		return nil, err
	}
	cur.ticks = u.cpuTicks
	ph.marks = append(ph.marks, cur)
	start := time.Now()
	for more := true; more && cur.at < d; {
		t0 := time.Now()
		for end := t0.Add(workloadBurst); more && time.Now().Before(end); {
			more = cl.send(s, rec, start, -1)
		}
		cur.busy += time.Since(t0)
		ops, took, err := y.burst(yardstickBurst)
		if err != nil {
			return nil, err
		}
		cur.refOps += ops
		cur.refBusy += took
		cur.at = time.Since(start)
		if last := ph.marks[len(ph.marks)-1]; cur.at-last.at >= windowLength {
			if u, err = probe(); err != nil {
				return nil, err
			}
			cur.ticks, cur.peakKB = u.cpuTicks, u.peakRSSkB
			cur.refP99 = y.tail()
			ph.marks = append(ph.marks, cur)
		}
	}
	ph.wall = time.Since(start)
	return ph, nil
}

// window is one slice of a measured phase.
type window struct {
	busy  time.Duration // spent on the workload (a slice also holds the yardstick's bursts)
	ops   int           // requests answered in the slice (replay: jobs settled)
	ticks uint64        // server CPU ticks spent in the slice
	rssKB uint64        // the servers' peak RSS in the slice
	n     int           // latency samples: the slice's single-job requests
	p50   int64         // their median, ns
	p99   int64         // their 99th percentile, ns
	speed float64       // the host's speed in the slice, 1 on the standard host
	tail  float64       // the same for tail latency: how short the yardstick's own tail was
}

// hostSpeed is the reference server's throughput over the nominal one.
func hostSpeed(refOps int, refBusy time.Duration) float64 {
	return float64(refOps) / refBusy.Seconds() / yardstickNominal
}

// windows cuts a measured phase at its marks. A request belongs to the slice
// its answer arrived in.
func (ph *phase) windows() []window {
	if len(ph.marks) < 2 {
		return nil
	}
	out := make([]window, len(ph.marks)-1)
	for i := range out {
		a, b := ph.marks[i], ph.marks[i+1]
		out[i].busy = b.busy - a.busy
		out[i].ticks = b.ticks - a.ticks
		out[i].rssKB = b.peakKB
		out[i].speed = hostSpeed(b.refOps-a.refOps, b.refBusy-a.refBusy)
		out[i].tail = float64(yardstickNominalP99) / float64(b.refP99)
	}
	lat := make([][]int64, len(out))
	for _, r := range ph.recs {
		w := 0
		for i, l := range r.lat {
			done := time.Duration(r.start[i] + l)
			for w < len(out) && done >= ph.marks[w+1].at {
				w++
			}
			if w == len(out) {
				break // answered after the last mark
			}
			out[w].ops++
			if r.kind[i] != opAdmitBatch {
				lat[w] = append(lat[w], l)
			}
		}
	}
	for i, l := range lat {
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		out[i].n, out[i].p50, out[i].p99 = len(l), percentile(l, 50), percentile(l, 99)
	}
	return out
}

// drain sends a whole finite stream on one client; the warm-up.
func drain(addrs []string, s stream) (*recorder, error) {
	cl, err := newLoader(addrs)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	rec := &recorder{}
	start := time.Now()
	for cl.send(s, rec, start, -1) {
	}
	return rec, nil
}

// pacedWorkers is the size of the open-loop phase's connection pool: enough
// that a slow answer delays only its own request, not the ones due after it.
const pacedWorkers = 16

// paced is the open-loop phase: requests leave on schedule, whether or not
// earlier ones have been answered, and each is timed from the instant it was
// due. Returns the instant the schedule counts from, the recorders (one per
// worker) and how late the generator itself dispatched each request.
func paced(addrs []string, s stream, schedule []time.Duration) (time.Time, []*recorder, []int64, error) {
	type job struct {
		req     []byte
		replica int
		kind    opKind
		due     time.Duration
	}
	// The stream is not safe for concurrent use, so the generator draws and
	// the workers only send. The buffer bounds memory, not lateness: the
	// generator never blocks on it unless every worker is stuck.
	jobs := make(chan job, 4096)
	recs := make([]*recorder, pacedWorkers)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond) // the workers get going first
	for i := range recs {
		cl, err := newLoader(addrs)
		if err != nil {
			return start, nil, nil, err
		}
		defer cl.close()
		recs[i] = &recorder{traced: true}
		wg.Add(1)
		go func(cl *loader, rec *recorder) {
			defer wg.Done()
			for j := range jobs {
				one := &oneShot{req: j.req, replica: j.replica, kind: j.kind}
				cl.send(one, rec, start, j.due)
			}
		}(cl, recs[i])
	}
	lag := make([]int64, 0, len(schedule))
	for _, due := range schedule {
		req, replica, kind, ok := s.next(nil)
		if !ok {
			break
		}
		// Sleep to within 2 ms of the instant (time.Sleep is that coarse
		// here), then spin the rest of the way, yielding each turn to the
		// workers' goroutines and, since the servers run on the same CPU,
		// to any other process that wants it.
		at := start.Add(due)
		if wait := time.Until(at) - 2*time.Millisecond; wait > 0 {
			time.Sleep(wait)
		}
		for time.Now().Before(at) {
			runtime.Gosched()
			syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
		}
		lag = append(lag, int64(time.Since(at)))
		jobs <- job{req, replica, kind, due}
	}
	close(jobs)
	wg.Wait()
	return start, recs, lag, nil
}

// oneShot is a stream of exactly one prebuilt request.
type oneShot struct {
	req     []byte
	replica int
	kind    opKind
	sent    bool
}

func (o *oneShot) next(buf []byte) ([]byte, int, opKind, bool) {
	if o.sent {
		return nil, 0, 0, false
	}
	o.sent = true
	return append(buf, o.req...), o.replica, o.kind, true
}

func (o *oneShot) check(int, []byte) error { return nil }

// verify walks a fresh copy of the stream a recorder was filled from and
// judges every recorded answer. It returns how many failed and the first few
// reasons.
func verify(s stream, rec *recorder, failures *failureLog) {
	for i := range rec.lat {
		if _, _, _, ok := s.next(nil); !ok {
			failures.add(fmt.Errorf("stream ended before recorded answer %d", i))
			return
		}
		if rec.status[i] == 0 {
			failures.add(fmt.Errorf("transport: %s", rec.bodies[i]))
			continue
		}
		if err := s.check(int(rec.status[i]), rec.bodies[i]); err != nil {
			failures.add(fmt.Errorf("%s #%d: %w", kindNames[rec.kind[i]], i, err))
		}
	}
}

// failureLog counts failed operations and keeps the first few reasons.
type failureLog struct {
	mu      sync.Mutex
	count   int
	reasons []string
}

func (f *failureLog) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if len(f.reasons) < 5 {
		f.reasons = append(f.reasons, err.Error())
	}
}

// latencies gathers the sorted latencies of the recorded single-job
// requests (everything but batches), and of the batches apart.
func latencies(recs []*recorder) (single, batch []int64) {
	for _, r := range recs {
		for i, l := range r.lat {
			if r.kind[i] == opAdmitBatch {
				batch = append(batch, l)
			} else {
				single = append(single, l)
			}
		}
	}
	sort.Slice(single, func(i, j int) bool { return single[i] < single[j] })
	sort.Slice(batch, func(i, j int) bool { return batch[i] < batch[j] })
	return single, batch
}

func countOps(recs []*recorder) int {
	n := 0
	for _, r := range recs {
		n += len(r.lat)
	}
	return n
}
