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

// TestBootFailsWithoutAnchorSnapshot: a data dir the escrow ledger cannot
// write its boot snapshot to must stop chronosd, naming the error. (A
// directory where the snapshot's temporary file goes makes the write fail
// for any user, root included.) chronosd used to log the failure and serve,
// appending WAL deltas against a snapshot that was never written.
func TestBootFailsWithoutAnchorSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "escrow-snapshot.json.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "CHRONOSD_ARGS=-addr 127.0.0.1:0 -escrow -data-dir "+dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("chronosd kept serving on a data dir it cannot snapshot:\n%s", stderr.String())
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("chronosd exited with %v, want status 1:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "chronosd: escrow anchor snapshot:") {
		t.Errorf("exit message does not name the failed snapshot:\n%s", stderr.String())
	}
}
