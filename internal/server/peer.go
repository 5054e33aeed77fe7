package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"chronos/internal/obs"
)

// This file is the one replica-to-replica HTTP client. Forwards, escrow
// lease calls, cache pushes and warm pulls are all peerState.call: one
// request builder, one timeout, one body cap, and one circuit-breaker policy,
// so the allow→settle protocol is written exactly once.

// maxPeerBodyBytes caps a buffered peer answer. The largest legitimate one is
// a /v1/cache/owned reply of maxCacheWarmEntries plans (~1 MiB); a peer
// streaming more than this is broken.
const maxPeerBodyBytes = 16 << 20

var errPeerBodyTooLarge = errors.New("peer answer exceeds the body cap")

// peerState carries what this replica knows about one peer: its base URL and
// the circuit breaker guarding every call to it. It survives membership
// reloads for peers that remain in the fleet, so a reload does not reset a
// deliberately opened circuit.
type peerState struct {
	srv     *Server
	base    string
	self    string // this replica's URL, stamped as ForwardedFromHeader
	breaker breaker
}

// peerOutcome is how one call ended, which is also how it settled the
// peer's breaker.
type peerOutcome int

const (
	// peerAnswered: the peer answered below 500 within the time and body
	// limits — alive, whatever the status says. Breaker closed.
	peerAnswered peerOutcome = iota
	// peerFailed: transport error, timeout, 5xx, or a truncated or over-cap
	// body. Breaker charged, chronosd_ring_peer_errors_total bumped.
	peerFailed
	// peerAborted: the caller's context was cancelled mid-call, which proves
	// nothing about the peer. A claimed half-open slot is released unjudged.
	peerAborted
	// peerSkipped: the circuit is open; no request was sent.
	peerSkipped
)

// call performs one HTTP exchange with the peer, bounded by the forward
// timeout (and ctx), and settles the breaker exactly once on every path
// past allow. The trace ID in ctx (or a minted one) and this replica's URL
// travel with every request, so the peer's span record and logs join this
// side's and the peer knows the request already took its one hop. status,
// header and body are meaningful only for peerAnswered.
func (p *peerState) call(ctx context.Context, method, path string, body []byte) (status int, header http.Header, answer []byte, outcome peerOutcome) {
	if !p.breaker.allow() {
		return 0, nil, nil, peerSkipped
	}
	status, header, answer, err := p.exchange(ctx, method, path, body)
	switch {
	case err == nil && status < http.StatusInternalServerError:
		p.breaker.success()
		return status, header, answer, peerAnswered
	case err != nil && errors.Is(ctx.Err(), context.Canceled):
		p.breaker.abort()
		return 0, nil, nil, peerAborted
	default:
		p.breaker.fail()
		p.srv.metrics.ringErrors.inc(p.base)
		return status, nil, nil, peerFailed
	}
}

// exchange is call's round trip: build, send, and buffer the whole answer,
// so a peer that stalls mid-body surfaces as an error here instead of as a
// truncated relay downstream.
func (p *peerState) exchange(ctx context.Context, method, path string, body []byte) (int, http.Header, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, p.srv.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, p.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedFromHeader, p.self)
	if tr := obs.FromContext(ctx); tr != nil {
		req.Header.Set(obs.TraceHeader, tr.ID)
	} else {
		req.Header.Set(obs.TraceHeader, obs.MintID())
	}
	resp, err := p.srv.peerClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBodyBytes+1))
	if err == nil && len(answer) > maxPeerBodyBytes {
		err = errPeerBodyTooLarge
	}
	return resp.StatusCode, resp.Header, answer, err
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
