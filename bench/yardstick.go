package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The yardstick is how the benchmark tells a slower program from a slower
// host. The runner is a small virtual machine on a shared host whose speed
// for this kind of work — short requests over loopback, a context switch per
// hop, the Go runtime parking and waking — moves by 10–40 % for seconds to
// minutes at a time (README.md, "Steadiness"). So the load generator keeps a
// second conversation going through every measured phase: every tenth of a
// second it spends a fifth of that time on a reference server, a standard-
// library net/http server with a handler that does nothing, built from this
// file and run as a child like chronosd. The reference server never changes,
// so its throughput in a slice is the host's speed in that slice, and every
// gated time is reported as it would read on a host where the reference
// server answers yardstickNominal requests a second.

// yardstickNominal defines the standard host: the reference server's
// throughput, in requests per second from one closed-loop client, on this
// class of runner when nothing else on the host interferes, and the 99th
// percentile of its latency there.
const (
	yardstickNominal    = 35000.0
	yardstickNominalP99 = 80 * time.Microsecond
)

// yardstickFlag is the hidden argument that turns this binary into the
// reference server.
const yardstickFlag = "-serve-yardstick"

// yardstickAnswer has the size and headers of a cached /v1/plan answer.
var yardstickAnswer = []byte(`{"plan":{"strategy":"Speculative-Resume","r":3,"pocd":0.995985601717804,"machineTime":4944.761713809722,"cost":4944.761713809722,"utility":-0.4962231112099891},"cached":true}` + "\n")

const yardstickBody = `{"job":{"tasks":120,"deadline":95.5,"tmin":22.5,"beta":1.45,"tauEst":6.75,"tauKill":13.5},"econ":{"theta":0.0001,"unitPrice":1}}`

// serveYardstick is the reference server's whole program.
func serveYardstick(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(yardstickAnswer)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {})
	return http.ListenAndServe(addr, mux)
}

// yardstick is the running reference server and the one connection to it.
type yardstick struct {
	proc *exec.Cmd
	c    *conn
	req  []byte
	buf  []byte
	lat  []int64 // latencies since the last call of tail
	once sync.Once
}

func startYardstick() (*yardstick, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ports, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(ports[0])
	y := &yardstick{
		proc: exec.Command(exe, yardstickFlag, addr),
		req:  buildRequest(nil, "POST", "/v1/plan", []byte(yardstickBody)),
	}
	if err := y.proc.Start(); err != nil {
		return nil, fmt.Errorf("start the reference server: %w", err)
	}
	track(y)
	if err := waitHealthy(addr, 10*time.Second); err != nil {
		y.stop()
		return nil, fmt.Errorf("the reference server never answered: %w", err)
	}
	if y.c, err = dial(addr); err != nil {
		y.stop()
		return nil, err
	}
	return y, nil
}

// burst sends requests one after another for d and returns how many were
// answered and how long that took.
func (y *yardstick) burst(d time.Duration) (int, time.Duration, error) {
	t0 := time.Now()
	last := t0
	for n := 1; ; n++ {
		status, out, err := y.c.do(y.req, y.buf[:0])
		if err != nil || status != 200 {
			return n - 1, time.Since(t0), fmt.Errorf("the reference server answered %d: %v", status, err)
		}
		y.buf = out
		now := time.Now()
		y.lat = append(y.lat, int64(now.Sub(last)))
		last = now
		if took := now.Sub(t0); took >= d {
			return n, took, nil
		}
	}
}

// tail returns the 99th percentile, in nanoseconds, of the latencies since
// it was last called, and forgets them.
func (y *yardstick) tail() int64 {
	sort.Slice(y.lat, func(a, b int) bool { return y.lat[a] < y.lat[b] })
	p99 := percentile(y.lat, 99)
	y.lat = y.lat[:0]
	return p99
}

// stop kills the reference server and waits for it to end.
func (y *yardstick) stop() {
	y.once.Do(func() {
		_ = y.proc.Process.Kill()
		_ = y.proc.Wait()
		if y.c != nil {
			y.c.close()
		}
		untrack(y)
	})
}
