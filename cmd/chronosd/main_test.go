package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain runs chronosd itself when the test binary is re-executed with
// CHRONOSD_ARGS set, so a test can watch the real process boot and exit.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("CHRONOSD_ARGS"); ok {
		os.Args = append([]string{"chronosd"}, strings.Fields(args)...)
		main()
		return
	}
	os.Exit(m.Run())
}

// bootExit runs chronosd with args and returns its exit status and standard
// error. A process still serving after 10 s fails the test: every caller
// expects chronosd to refuse to boot.
func bootExit(t *testing.T, args string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "CHRONOSD_ARGS=-addr 127.0.0.1:0 "+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("chronosd %s kept serving:\n%s", args, stderr.String())
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("chronosd %s exited with %v, want a failure status:\n%s", args, err, stderr.String())
	}
	return exit.ExitCode(), stderr.String()
}

// TestBootFailsWithoutAnchorSnapshot: a data dir the ledger cannot
// write its boot snapshot to must stop chronosd, naming the error. (A
// directory where the snapshot's temporary file goes makes the write fail
// for any user, root included.) chronosd used to log the failure and serve,
// appending WAL deltas against a snapshot that was never written.
func TestBootFailsWithoutAnchorSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "escrow-snapshot.json.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	code, stderr := bootExit(t, "-escrow -data-dir "+dir)
	if code != 1 {
		t.Fatalf("chronosd exited %d, want status 1:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "chronosd: escrow anchor snapshot:") {
		t.Errorf("exit message does not name the failed snapshot:\n%s", stderr)
	}
}

// TestBootFailsOnRetiredOrNegativeCacheKnobs: -workers is gone (exit 2, the
// flag package's answer), and a negative -cache-capacity, which used to
// turn the cache off, is refused naming the value.
func TestBootFailsOnRetiredOrNegativeCacheKnobs(t *testing.T) {
	code, stderr := bootExit(t, "-workers 4")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -workers") {
		t.Errorf("-workers 4: exit %d, want 2 naming the flag:\n%s", code, stderr)
	}
	code, stderr = bootExit(t, "-cache-capacity -1")
	if code != 1 || !strings.Contains(stderr, "cache capacity -1") {
		t.Errorf("-cache-capacity -1: exit %d, want 1 naming the value:\n%s", code, stderr)
	}
}
