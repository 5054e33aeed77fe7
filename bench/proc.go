package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime and stime. It is
// 100 on every Linux the Go toolchain targets; sysconf is not reachable
// without cgo.
const clockTick = 100

// env is what one benchmark process works in: the checkout it was started
// from, the chronosd binary it built there, and the directory that holds
// everything it writes.
type env struct {
	root     string  // the checkout (holds go.mod of module chronos)
	workDir  string  // <root>/.bench_build
	chronosd string  // binary built from <root>/cmd/chronosd
	buildS   float64 // wall time of that go build
}

// findRoot walks up from the working directory to the chronos checkout, so
// the benchmark runs from the root (bench/run.sh) and from bench/ (go run .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.Contains(append([]byte("\n"), data...), []byte("\nmodule chronos\n")) {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "chronosd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a chronos checkout: no go.mod of module chronos with cmd/chronosd above the working directory")
		}
		dir = parent
	}
}

// pinnedEnv marks the benchmark process that runs pinned to one CPU; its
// value is what the process before it measured, the build's seconds.
const pinnedEnv = "CHRONOS_BENCH_PINNED_BUILD_S"

// prepare checks the host, builds chronosd from the tree on every CPU the
// host gives, and then starts the benchmark over on one: see pinToOneCPU.
func prepare() (*env, error) {
	if _, err := os.ReadFile("/proc/self/stat"); err != nil {
		return nil, fmt.Errorf("/proc is unavailable, so server CPU and RSS cannot be measured: %w", err)
	}
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, workDir: filepath.Join(root, ".bench_build")}
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return nil, err
	}
	e.chronosd = filepath.Join(e.workDir, "chronosd")
	if v := os.Getenv(pinnedEnv); v != "" {
		e.buildS, _ = strconv.ParseFloat(v, 64)
		return e, nil
	}
	start := time.Now()
	build := exec.Command("go", "build", "-o", e.chronosd, "./cmd/chronosd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/chronosd: %w\n%s", err, out)
	}
	e.buildS = time.Since(start).Seconds()
	if err := pinToOneCPU(e.buildS); err != nil {
		fmt.Fprintln(os.Stderr, "bench: running unpinned, so expect wider spreads:", err)
	}
	return e, nil
}

// pinToOneCPU restricts this thread to the last CPU it may run on and
// executes the benchmark again in its place, so that the load generator, its
// Go runtime and every child it starts — chronosd replicas, the reference
// server — inherit the restriction. It returns only when that failed.
//
// One CPU, because request and answer are a ping-pong between processes: on
// two CPUs each hop wakes an idle virtual CPU through the hypervisor, which
// costs more than the request's own work and varies with the host's load; on
// one, a hop is a context switch inside the guest and no CPU ever idles. The
// last, because the kernel's own housekeeping favours the first.
func pinToOneCPU(buildS float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs, the kernel's own default limit
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := 0; i < int(n)*8; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return errors.New("sched_getaffinity returned an empty mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	environ := append(os.Environ(), pinnedEnv+"="+strconv.FormatFloat(buildS, 'g', -1, 64))
	return syscall.Exec(exe, os.Args, environ)
}

// stopper is a child, or a group of children, the benchmark has started.
type stopper interface{ stop() }

// live tracks everything this process has started, so that a signal or a
// failed run kills the children and removes their directories.
var live struct {
	sync.Mutex
	running map[stopper]struct{}
}

func track(s stopper) {
	live.Lock()
	if live.running == nil {
		live.running = map[stopper]struct{}{}
	}
	live.running[s] = struct{}{}
	live.Unlock()
}

func untrack(s stopper) {
	live.Lock()
	delete(live.running, s)
	live.Unlock()
}

// stopAll stops everything still running; main defers it and the signal
// handler calls it.
func stopAll() {
	live.Lock()
	running := make([]stopper, 0, len(live.running))
	for s := range live.running {
		running = append(running, s)
	}
	live.Unlock()
	for _, s := range running {
		s.stop()
	}
}

// handleSignals makes SIGINT and SIGTERM a clean exit path.
func handleSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		stopAll()
		os.Exit(130)
	}()
}

// fleet is one or more chronosd children with their per-run directory.
type fleet struct {
	dir   string
	addrs []string // host:port per replica
	procs []*exec.Cmd
	once  sync.Once
}

// fleetSpec is what a workload needs from its servers. Only deployment
// settings are ever passed to chronosd; every tuning flag stays at its
// default.
type fleetSpec struct {
	replicas int
	tenants  []byte // tenants file contents; nil for none
	escrow   bool   // -escrow with a -data-dir per replica
}

// freePorts asks the kernel for n unused loopback ports.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// startFleet boots the replicas and returns once every one answers
// /healthz. On any failure the children are killed and the directory
// removed.
func (e *env) startFleet(spec fleetSpec) (*fleet, error) {
	dir, err := os.MkdirTemp(e.workDir, "run-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	track(f)

	ports, err := freePorts(spec.replicas)
	if err != nil {
		f.stop()
		return nil, err
	}
	urls := make([]string, spec.replicas)
	for i, p := range ports {
		f.addrs = append(f.addrs, "127.0.0.1:"+strconv.Itoa(p))
		urls[i] = "http://" + f.addrs[i]
	}
	tenantsPath := ""
	if spec.tenants != nil {
		tenantsPath = filepath.Join(dir, "tenants.json")
		if err := os.WriteFile(tenantsPath, spec.tenants, 0o644); err != nil {
			f.stop()
			return nil, err
		}
	}
	for i := range f.addrs {
		args := []string{"-addr", f.addrs[i]}
		if spec.replicas > 1 {
			args = append(args, "-self", urls[i], "-peers", strings.Join(urls, ","))
		}
		if tenantsPath != "" {
			args = append(args, "-tenants", tenantsPath)
		}
		if spec.escrow {
			args = append(args, "-escrow", "-data-dir", filepath.Join(dir, "data"+strconv.Itoa(i)))
		}
		// Standard error, where chronosd writes a line per request, is left
		// unset and so goes to /dev/null. Into a file it costs the disk's
		// write-back, which slowed the server by a tenth for a minute at a
		// time, at moments of the kernel's choosing (README.md, "Steadiness").
		cmd := exec.Command(e.chronosd, args...)
		if err := cmd.Start(); err != nil {
			f.stop()
			return nil, fmt.Errorf("start chronosd: %w", err)
		}
		f.procs = append(f.procs, cmd)
	}
	for i, addr := range f.addrs {
		if err := waitHealthy(addr, 10*time.Second); err != nil {
			args := strings.Join(f.procs[i].Args, " ")
			f.stop()
			return nil, fmt.Errorf("replica %d never became healthy: %w; its standard error is discarded, so start it by hand to see why: %s", i, err, args)
		}
	}
	return f, nil
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(addr string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	req := buildRequest(nil, "GET", "/healthz", nil)
	var lastErr error
	for time.Now().Before(deadline) {
		c, err := dial(addr)
		if err == nil {
			var status int
			status, _, err = c.do(req, nil)
			c.close()
			if err == nil && status == 200 {
				return nil
			}
			if err == nil {
				err = fmt.Errorf("healthz answered %d", status)
			}
		}
		lastErr = err
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("timed out after %v: %v", limit, lastErr)
}

// stop kills the children, waits for each to end, and removes the run
// directory. Safe to call more than once and from the signal handler.
func (f *fleet) stop() {
	f.once.Do(func() {
		for _, p := range f.procs {
			_ = p.Process.Kill()
		}
		for _, p := range f.procs {
			_ = p.Wait() // reaps; the error is the kill we just sent
		}
		os.RemoveAll(f.dir)
		untrack(f)
	})
}

// usage is the servers' resource use as /proc reports it.
type usage struct {
	cpuTicks  uint64 // Σ utime+stime over the replicas
	peakRSSkB uint64 // max VmHWM over the replicas: since the last sample, or the boot
}

func (f *fleet) usage() (usage, error) {
	var u usage
	for _, p := range f.procs {
		pid := strconv.Itoa(p.Process.Pid)
		stat, err := os.ReadFile("/proc/" + pid + "/stat")
		if err != nil {
			return u, err
		}
		ticks, err := procTimes(string(stat))
		if err != nil {
			return u, err
		}
		u.cpuTicks += ticks
		status, err := os.ReadFile("/proc/" + pid + "/status")
		if err != nil {
			return u, err
		}
		kb, err := procPeakRSS(string(status))
		if err != nil {
			return u, err
		}
		if kb > u.peakRSSkB {
			u.peakRSSkB = kb
		}
	}
	return u, nil
}

// sample is usage for one slice of a measured phase: it also starts the
// replicas' peak RSS over (5 to /proc/<pid>/clear_refs sets VmHWM back to the
// present RSS), so that the next sample's peak is the next slice's alone.
// Where the kernel refuses that, VmHWM stays the peak since the boot and a
// slice's figure is the peak up to its end: the error is not reported.
func (f *fleet) sample() (usage, error) {
	u, err := f.usage()
	for _, p := range f.procs {
		_ = os.WriteFile("/proc/"+strconv.Itoa(p.Process.Pid)+"/clear_refs", []byte("5"), 0)
	}
	return u, err
}

// dataBytes is the total size of the replicas' -data-dir contents.
func (f *fleet) dataBytes() int64 {
	var total int64
	matches, _ := filepath.Glob(filepath.Join(f.dir, "data*", "*"))
	for _, m := range matches {
		if st, err := os.Stat(m); err == nil && st.Mode().IsRegular() {
			total += st.Size()
		}
	}
	return total
}

// scrape fetches and sums GET /metrics over the replicas.
func (f *fleet) scrape() (scrape, error) {
	var all scrape
	req := buildRequest(nil, "GET", "/metrics", nil)
	for _, addr := range f.addrs {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		status, body, err := c.do(req, nil)
		c.close()
		if err != nil {
			return nil, err
		}
		if status != 200 {
			return nil, fmt.Errorf("GET /metrics on %s answered %d", addr, status)
		}
		samples, err := parseProm(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		all = append(all, samples...)
	}
	return all, nil
}
