package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chronos/internal/obs"
	"chronos/internal/ring"
)

// This file is the one replica-to-replica HTTP client. Every forward — a plan
// to its key's owner, an admit to its tenant's pool owner — is
// peerState.call: one request builder, one timeout, one body cap, and one
// circuit-breaker policy, so the allow→settle protocol is written exactly
// once. Underneath it speaks
// HTTP/1.1 by hand over persistent per-peer connections — one write per
// request, one buffered parse per answer, on the caller's goroutine —
// because a forward sits on the request path and net/http's client spends
// more on a call (two goroutine hand-offs, ~70 allocations) than the owner
// spends answering it.

const (
	// maxPeerBodyBytes caps a buffered peer answer. A relayed /v1/plan or
	// /v1/admit answer and an error envelope are under a kilobyte, and an
	// /v1/admit/batch answer of the default 1,024 jobs a few hundred; a peer
	// sending more than the default request limit is broken.
	maxPeerBodyBytes = 1 << 20
	// maxPeerHeaderLines bounds an answer's header section (and a chunked
	// answer's trailer). One line is bounded by the connection's 4 KiB
	// bufio.Reader.
	maxPeerHeaderLines = 64
	// maxIdlePeerConns is how many idle connections one peer's pool keeps;
	// a burst wider than this closes the excess as the calls return.
	maxIdlePeerConns = 16
	// peerConnIdleExpiry retires a pooled connection at half the server
	// side's idle timeout, so the peer's own idle reaper can never close a
	// connection in the instant a request is written to it.
	peerConnIdleExpiry = idleTimeout / 2
	// peerInlineBodyBytes is the largest request body copied beside the head
	// so the request leaves in one Write; a larger one is sent with the head
	// as one vectored write instead.
	peerInlineBodyBytes = 4 << 10
)

var errPeerBodyTooLarge = errors.New("peer answer exceeds the body cap")

// peerState carries what this replica knows about one peer: its base URL,
// the circuit breaker guarding every call to it, and the idle connections to
// it. It survives membership reloads for peers that remain in the fleet, so
// a reload neither resets a deliberately opened circuit nor redials.
type peerState struct {
	srv  *Server
	base string
	addr string // host:port dialed, derived from base once
	// head is the constant middle of every request to this peer, from the
	// protocol version through the name of the trace header; the trace ID,
	// Content-Length and body follow it. It stamps this replica's URL as
	// ForwardedFromHeader.
	head    string
	breaker breaker

	mu     sync.Mutex
	idle   []*peerConn // LIFO: the most recently used connection is reused first
	closed bool        // the peer left the view or the server closed: pool nothing more
}

func newPeerState(s *Server, base, self string) *peerState {
	addr, _ := ring.DialAddr(base) // every member passed Membership.Validate
	return &peerState{
		srv: s, base: base, addr: addr,
		head: " HTTP/1.1\r\nHost: " + strings.TrimPrefix(base, "http://") +
			"\r\nContent-Type: application/json\r\n" + ForwardedFromHeader + ": " + self +
			"\r\n" + obs.TraceHeader + ": ",
		breaker: breaker{threshold: s.cfg.BreakerThreshold, cooldown: s.cfg.BreakerCooldown},
	}
}

// peerConn is one persistent connection to a peer with the reader its
// answers are parsed from and the buffer its requests are built in.
type peerConn struct {
	c         net.Conn
	br        *bufio.Reader
	req       []byte
	idleSince time.Time // when it last entered the pool; zero on a fresh dial
}

// peerAnswer is a peer's complete answer: status, buffered body, and the two
// response headers a relay copies.
type peerAnswer struct {
	status      int
	contentType string
	servedBy    string // ServedByHeader
	body        []byte
}

// peerOutcome is how one call ended, which is also how it settled the
// peer's breaker.
type peerOutcome int

const (
	// peerAnswered: the peer answered below 500 within the time and body
	// limits — alive, whatever the status says. Breaker closed.
	peerAnswered peerOutcome = iota
	// peerFailed: transport error, timeout, 5xx, or a malformed, truncated or
	// over-cap answer. Breaker charged, chronosd_ring_peer_errors_total
	// bumped.
	peerFailed
	// peerAborted: the caller's context was cancelled mid-call, which proves
	// nothing about the peer. A claimed half-open slot is released unjudged.
	peerAborted
	// peerSkipped: the circuit is open; no request was sent.
	peerSkipped
)

// call performs one HTTP exchange with the peer, bounded by the forward
// timeout (and ctx), and settles the breaker exactly once on every path
// past allow. traceID (minted when empty) and this replica's URL
// travel with every request, so the peer's span record and logs join this
// side's and the peer knows the request already took its one hop. The answer
// is meaningful only for peerAnswered (a peerFailed 5xx keeps its status).
func (p *peerState) call(ctx context.Context, traceID, method, path string, body []byte) (peerAnswer, peerOutcome) {
	if !p.breaker.allow() {
		return peerAnswer{}, peerSkipped
	}
	ans, err := p.exchange(ctx, traceID, method, path, body)
	switch {
	case err == nil && ans.status < http.StatusInternalServerError:
		p.breaker.success()
		return ans, peerAnswered
	case err != nil && errors.Is(ctx.Err(), context.Canceled):
		p.breaker.abort()
		return peerAnswer{}, peerAborted
	default:
		p.breaker.fail()
		p.srv.metrics.ringErrors.inc(p.base)
		return peerAnswer{status: ans.status}, peerFailed
	}
}

// exchange is call's round trip — dial or reuse, send, and buffer the whole
// answer, so a peer that stalls mid-body surfaces as an error here instead
// of as a truncated relay downstream — under one deadline that covers all of
// it. A pooled connection the peer closed while it idled (a restart, its own
// idle reaper) fails before the first byte of an answer; the request is then
// resent once on a fresh connection inside the same deadline. A plan the peer
// may have seen is then solved twice, which is harmless; an admit it debited
// before it died is debited again only if its next life answers the resend
// within the deadline, which spends budget twice but never admits past it. A
// fresh connection that fails is never retried.
func (p *peerState) exchange(ctx context.Context, traceID, method, path string, body []byte) (peerAnswer, error) {
	if err := ctx.Err(); err != nil {
		return peerAnswer{}, err
	}
	now := time.Now()
	deadline := now.Add(p.srv.cfg.ForwardTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if traceID == "" {
		traceID = obs.MintID()
	}
	if pc := p.takeIdle(now); pc != nil {
		if ans, stale, err := p.roundTrip(ctx, pc, deadline, method, path, traceID, body); !stale {
			return ans, err
		}
	}
	c, err := (&net.Dialer{Deadline: deadline}).DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return peerAnswer{}, err
	}
	p.srv.metrics.ringDials.inc(p.base)
	ans, _, err := p.roundTrip(ctx, &peerConn{c: c, br: bufio.NewReader(c)}, deadline, method, path, traceID, body)
	return ans, err
}

// roundTrip writes one request to pc and reads its answer, and disposes of
// pc: back to the pool only after a complete, in-bounds answer on a
// connection the peer keeps open, and only once the cancel hook is known not
// to have run — a connection with half an answer or a poisoned deadline on
// it would hand the next caller somebody else's response. stale reports a
// reused connection that failed, through no deadline or cancel, before the
// first byte of an answer.
func (p *peerState) roundTrip(ctx context.Context, pc *peerConn, deadline time.Time, method, path, traceID string, body []byte) (ans peerAnswer, stale bool, err error) {
	_ = pc.c.SetDeadline(deadline) // fails only on a closed connection, which the write reports
	// A caller's cancel becomes an immediate deadline on the connection.
	stop := context.AfterFunc(ctx, func() { _ = pc.c.SetDeadline(time.Unix(1, 0)) })
	req := append(pc.req[:0], method...)
	req = append(req, ' ')
	req = append(req, path...)
	req = append(req, p.head...)
	req = append(req, traceID...)
	req = append(req, "\r\nContent-Length: "...)
	req = strconv.AppendInt(req, int64(len(body)), 10)
	req = append(req, "\r\n\r\n"...)
	if len(body) <= peerInlineBodyBytes {
		req = append(req, body...)
		_, err = pc.c.Write(req)
	} else {
		_, err = (&net.Buffers{req, body}).WriteTo(pc.c)
	}
	pc.req = req[:0]
	if err == nil {
		_, err = pc.br.Peek(1)
	}
	reusable := false
	if err != nil {
		stale = !pc.idleSince.IsZero() && ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded)
	} else {
		ans, reusable, err = readPeerAnswer(pc.br, p.base)
	}
	if stop() && reusable {
		p.putIdle(pc)
	} else {
		pc.c.Close()
	}
	return ans, stale, err
}

// readPeerAnswer parses one HTTP/1.1 answer from br, bounding everything the
// peer sends before believing it: the status line and each header line by
// br's buffer, the header section by maxPeerHeaderLines, and the body — a
// declared Content-Length before a byte of it is read, a chunked or
// close-delimited one as it arrives — by maxPeerBodyBytes. base interns the
// ServedByHeader value a peer that computed the answer itself sends. reusable
// reports that the answer was complete, the peer did not announce a close,
// and nothing follows the answer on the connection.
func readPeerAnswer(br *bufio.Reader, base string) (ans peerAnswer, reusable bool, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return peerAnswer{}, false, err
	}
	// "HTTP/1.1 200 OK\r\n". An interim 1xx is refused with everything else
	// outside 200–599: no request here sends Expect.
	if len(line) < 13 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) || (line[12] != ' ' && line[12] != '\r' && line[12] != '\n') {
		return peerAnswer{}, false, fmt.Errorf("peer answer: malformed status line %q", line)
	}
	if ans.status, err = strconv.Atoi(string(line[9:12])); err != nil || ans.status < 200 || ans.status > 599 {
		return peerAnswer{}, false, fmt.Errorf("peer answer: unsupported status %q", line[9:12])
	}
	h, err := readPeerHead(br, base)
	if err != nil {
		return peerAnswer{}, false, err
	}
	ans.contentType, ans.servedBy = h.contentType, h.servedBy
	switch {
	case h.chunked && h.length >= 0:
		err = errors.New("peer answer: both Content-Length and chunked encoding")
	case h.chunked:
		if ans.body, err = io.ReadAll(io.LimitReader(httputil.NewChunkedReader(br), maxPeerBodyBytes+1)); err == nil {
			// httputil's reader stops behind the last chunk; the trailer
			// section (empty from a chronosd) is read like a head and dropped.
			_, err = readPeerHead(br, base)
		}
	case h.length > maxPeerBodyBytes:
		err = errPeerBodyTooLarge
	case h.length >= 0:
		ans.body = make([]byte, h.length)
		_, err = io.ReadFull(br, ans.body)
	case h.closes:
		ans.body, err = io.ReadAll(io.LimitReader(br, maxPeerBodyBytes+1))
	default:
		err = errors.New("peer answer: neither Content-Length nor chunked encoding nor Connection: close")
	}
	if err == nil && len(ans.body) > maxPeerBodyBytes {
		err = errPeerBodyTooLarge
	}
	if err != nil {
		return peerAnswer{}, false, err
	}
	return ans, !h.closes && br.Buffered() == 0, nil
}

// peerHead is what one header section says about the answer's framing, plus
// the two header values a relay copies.
type peerHead struct {
	length                int64 // Content-Length, -1 when absent
	chunked, closes       bool
	contentType, servedBy string
}

// readPeerHead reads header lines through the blank line that ends them.
func readPeerHead(br *bufio.Reader, base string) (peerHead, error) {
	h := peerHead{length: -1}
	for lines := 0; ; lines++ {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return h, err
		}
		if line = bytes.TrimRight(line, "\r\n"); len(line) == 0 {
			return h, nil
		}
		colon := bytes.IndexByte(line, ':')
		if lines == maxPeerHeaderLines || colon <= 0 || line[0] == ' ' || line[0] == '\t' {
			return h, fmt.Errorf("peer answer: malformed header section at line %d", lines+1)
		}
		name, value := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			n, err := strconv.ParseUint(string(value), 10, 63)
			if err != nil || (h.length >= 0 && h.length != int64(n)) {
				return h, fmt.Errorf("peer answer: malformed Content-Length %q", value)
			}
			h.length = int64(n)
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			if h.chunked = bytes.EqualFold(value, []byte("chunked")); !h.chunked {
				return h, fmt.Errorf("peer answer: unsupported Transfer-Encoding %q", value)
			}
		case bytes.EqualFold(name, []byte("Connection")):
			h.closes = bytes.EqualFold(value, []byte("close"))
		case bytes.EqualFold(name, []byte("Content-Type")):
			h.contentType = internBytes(value, jsonContentType[0])
		case bytes.EqualFold(name, []byte(ServedByHeader)):
			h.servedBy = internBytes(value, base)
		}
	}
}

// internBytes returns s itself when b spells it, sparing the copy.
func internBytes(b []byte, s string) string {
	if string(b) == s {
		return s
	}
	return string(b)
}

// takeIdle pops the most recently used idle connection young enough to
// trust, closing the expired ones it finds above it; nil when none is left.
func (p *peerState) takeIdle(now time.Time) *peerConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	for n := len(p.idle); n > 0; n-- {
		pc := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		if now.Sub(pc.idleSince) < peerConnIdleExpiry {
			return pc
		}
		pc.c.Close()
	}
	return nil
}

// putIdle returns pc to the pool, or closes it when the pool is full or
// closed — the latter is how an exchange that outlives its peer's membership
// (or the server) does not leak its connection.
func (p *peerState) putIdle(pc *peerConn) {
	pc.idleSince = time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.idle) == maxIdlePeerConns {
		pc.c.Close()
		return
	}
	p.idle = append(p.idle, pc)
}

// closeIdle closes the pooled connections and marks the pool closed, so
// in-flight exchanges close theirs as they finish. Calls keep working, one
// dial each.
func (p *peerState) closeIdle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pc := range p.idle {
		pc.c.Close()
	}
	p.idle, p.closed = nil, true
}

// breaker is a consecutive-failure circuit breaker with a half-open probe.
// After threshold consecutive failed calls the circuit opens for cooldown,
// during which calls to the peer are skipped — keeping a dead replica from
// adding a connect-timeout to every request it used to own. When the
// cooldown expires, exactly ONE call wins the CAS in allow and becomes the
// half-open probe; everyone else keeps being skipped until that probe's
// verdict lands. A successful probe closes the circuit, a failed one
// re-opens it for a fresh cooldown — so a still-dead peer costs at most one
// connect-timeout per cooldown window, not threshold of them.
//
// The whole state machine lives in one atomic word (gate) so a trip is a
// single CAS: there is no window where the state says open but the deadline
// is stale, and two goroutines can never both observe the threshold
// crossing (the old Add-then-Store counter reset allowed exactly that).
type breaker struct {
	threshold int
	cooldown  time.Duration
	// failures counts consecutive failures while the circuit is closed,
	// advanced by CAS so a concurrent failure is never clobbered.
	failures atomic.Int32
	// gate encodes the state: gateClosed, gateProbing (a half-open probe is
	// in flight), or a positive open-until deadline in unix nanos.
	gate atomic.Int64
}

const (
	gateClosed  int64 = 0
	gateProbing int64 = -1
	// gateExpired is an already-elapsed open deadline: the state an aborted
	// probe restores, so the next request immediately becomes the new probe.
	gateExpired int64 = 1
)

// allow reports whether a call may be attempted now. Winning the
// open→probing CAS claims the single half-open probe slot; the caller MUST
// settle it by calling fail, success, or abort.
func (b *breaker) allow() bool {
	g := b.gate.Load()
	switch {
	case g == gateClosed:
		return true
	case g == gateProbing:
		return false
	default:
		if time.Now().UnixNano() < g {
			return false
		}
		return b.gate.CompareAndSwap(g, gateProbing)
	}
}

// fail records one failed call: a failed half-open probe re-opens the
// circuit immediately; a closed-state failure advances the consecutive
// counter and trips at the threshold. A failure while the circuit is
// already open (an in-flight straggler) only bumps the counter — it never
// extends the open window, so a trickle of stragglers cannot postpone the
// next probe forever.
func (b *breaker) fail() {
	if b.gate.CompareAndSwap(gateProbing, time.Now().Add(b.cooldown).UnixNano()) {
		b.failures.Store(0)
		return
	}
	for {
		n := b.failures.Load()
		if !b.failures.CompareAndSwap(n, n+1) {
			continue
		}
		if int(n+1) >= b.threshold && b.gate.CompareAndSwap(gateClosed, time.Now().Add(b.cooldown).UnixNano()) {
			b.failures.Store(0)
		}
		return
	}
}

// success closes the circuit (and settles a half-open probe as passed).
func (b *breaker) success() {
	b.failures.Store(0)
	b.gate.Store(gateClosed)
}

// abort releases a claimed half-open probe slot without judging the peer
// (the client went away mid-probe, so the attempt proves nothing). The gate
// is restored to an already-expired deadline: the next request becomes the
// new probe instead of the slot leaking forever.
func (b *breaker) abort() {
	b.gate.CompareAndSwap(gateProbing, gateExpired)
}
