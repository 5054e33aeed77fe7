package tenant

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestStoreRoundTripThroughWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := mustRegistry(t, map[string]Limits{"etl": {Budget: 100}})
	e := NewEscrowLedger(reg, st)
	if err := e.Compact(); err != nil { // anchor snapshot, as boot does
		t.Fatal(err)
	}
	for _, cost := range []float64{10, 30} {
		if ok, _ := e.DebitLocal("etl", cost); !ok {
			t.Fatalf("debit of %v failed", cost)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process: replay the WAL (no snapshot was ever compacted).
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	state := st2.State()
	if got := state.Pools["etl"]; got != 60 {
		t.Errorf("replayed pool level = %v, want 60 (100 - 10 - 30)", got)
	}
}

func TestStoreSnapshotPlusTailReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := mustRegistry(t, map[string]Limits{"etl": {Budget: 100}})
	e := NewEscrowLedger(reg, st)
	e.DebitLocal("etl", 30)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot debits land in the (now truncated) WAL.
	if ok, _ := e.DebitLocal("etl", 7); !ok {
		t.Fatal("debit failed")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	state := st2.State()
	if got := state.Pools["etl"]; got != 63 {
		t.Errorf("recovered level = %v, want 63 (70 snapshot - 7 debit)", got)
	}
}

// TestStoreDuplicateReplayImpossible simulates the crash window between
// snapshot rename and WAL truncation: records already folded into the
// snapshot must not be applied twice.
func TestStoreDuplicateReplayImpossible(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := mustRegistry(t, map[string]Limits{"etl": {Budget: 100}})
	e := NewEscrowLedger(reg, st)
	if ok, _ := e.DebitLocal("etl", 40); !ok {
		t.Fatal("debit failed")
	}
	// Snapshot the state but "crash" before truncation: rewrite the WAL
	// with its pre-compaction contents.
	walPath := filepath.Join(dir, walFile)
	pre, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, pre, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.State().Pools["etl"]; got != 60 {
		t.Errorf("level after duplicate-replay crash = %v, want 60 (debit applied once)", got)
	}
}

func TestStoreTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := mustRegistry(t, map[string]Limits{"etl": {Budget: 100}})
	e := NewEscrowLedger(reg, st)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	_, _ = e.DebitLocal("etl", 10)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn final append: half a JSON object with no newline.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"op":"debit","ten`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("torn WAL tail should not fail boot: %v", err)
	}
	defer st2.Close()
	if got := st2.State().Pools["etl"]; got != 90 {
		t.Errorf("level = %v, want 90 (intact prefix applied, torn tail dropped)", got)
	}
}

// TestStoreTornTailTrimmed: OpenStore used to tolerate a torn tail and then
// reopen the log for appending with the fragment still there, so a Store
// appended to without the boot-time anchor Compact glued its next record onto
// the fragment: the following boot dropped that record with the fragment as
// one torn tail (its spend forgotten), or failed closed if more had followed.
// The tail is cut on open (and an intact last line the crash cut before its
// newline is ended), so the next record stands on a line of its own.
func TestStoreTornTailTrimmed(t *testing.T) {
	for _, tail := range []string{
		`{"seq":99,"op":"debit","ten`,                      // half a record
		"{\"seq\":99,\"op\n\n",                             // half a record, then blank lines
		`{"seq":4,"op":"debit","tenant":"a","amount":100}`, // a whole one, newline lost
	} {
		dir := t.TempDir()
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Compact(map[string]float64{"a": 1000}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := st.Append(Record{Op: OpDebit, Tenant: "a", Amount: 100}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		walPath := filepath.Join(dir, walFile)
		f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()
		want := 700.0
		if json.Valid([]byte(tail)) {
			want = 600
		}

		st2, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("tail %q: %v", tail, err)
		}
		if got := st2.State().Pools["a"]; got != want {
			t.Errorf("tail %q: level after first reopen = %v, want %v", tail, got, want)
		}
		// No anchor Compact: the next record goes straight onto the log.
		if err := st2.Append(Record{Op: OpDebit, Tenant: "a", Amount: 50}); err != nil {
			t.Fatal(err)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
		st3, err := OpenStore(dir)
		if err != nil {
			raw, _ := os.ReadFile(walPath)
			t.Fatalf("tail %q: boot after an append onto the recovered log failed: %v\n%s", tail, err, raw)
		}
		if got := st3.State().Pools["a"]; got != want-50 {
			t.Errorf("tail %q: level after second reopen = %v, want %v", tail, got, want-50)
		}
		st3.Close()
	}
}

// TestStoreMidFileCorruptionFailsOpen: recovery used to treat any undecodable
// line as a torn tail and stop there, so one damaged byte in the first of
// three debits restored the pool at 1000 instead of 700 — spent budget back
// from the dead. Only the final line can be torn by a crash; an undecodable
// line with records after it must fail the open, naming the line.
func TestStoreMidFileCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(map[string]float64{"a": 1000}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append(Record{Op: OpDebit, Tenant: "a", Amount: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFile)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	wal[1] = '#' // inside the first record
	if err := os.WriteFile(walPath, wal, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err == nil {
		level := st2.State().Pools["a"]
		st2.Close()
		t.Fatalf("OpenStore accepted a WAL corrupt at line 1 of 3 and restored the pool at %v (true level 700)", level)
	}
	if !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error %q does not name the corrupt line", err)
	}
}

// TestStoreDamagedNameIsUndecodable: recovery used to decode a WAL line
// leniently, ignoring a key it did not know and replaying an op it did not
// know as nothing. One damaged byte in the first of three debits of 100 —
// "debiu", "amounu" or "tenanu" — then restored a pool of 1000 at 800, not
// 700, and a damaged "pools" key in the snapshot restored every pool full.
// Such a line is undecodable: followed by records it fails the open, and
// last it is trimmed as a torn tail.
func TestStoreDamagedNameIsUndecodable(t *testing.T) {
	for _, damage := range [][2]string{
		{`"debit"`, `"debiu"`}, {`"amount"`, `"amounu"`}, {`"tenant"`, `"tenanu"`},
	} {
		for _, last := range []bool{false, true} {
			dir := t.TempDir()
			st, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Compact(map[string]float64{"a": 1000}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := st.Append(Record{Op: OpDebit, Tenant: "a", Amount: 100}); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			walPath := filepath.Join(dir, walFile)
			raw, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(string(raw), "\n")
			i := 0
			if last {
				i = 2
			}
			lines[i] = strings.Replace(lines[i], damage[0], damage[1], 1)
			if err := os.WriteFile(walPath, []byte(strings.Join(lines, "")), 0o644); err != nil {
				t.Fatal(err)
			}

			st2, err := OpenStore(dir)
			if !last {
				if err == nil {
					level := st2.State().Pools["a"]
					st2.Close()
					t.Errorf("%s in line 1 of 3: restored the pool at %v (true level 700)", damage[1], level)
				} else if !strings.Contains(err.Error(), "line 1") {
					t.Errorf("%s in line 1 of 3: error %q does not name the line", damage[1], err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s in the last line: %v, want it trimmed as a torn tail", damage[1], err)
			}
			if got := st2.State().Pools["a"]; got != 800 {
				t.Errorf("%s in the last line: level %v, want 800", damage[1], got)
			}
			st2.Close()
			if trimmed, _ := os.ReadFile(walPath); string(trimmed) != lines[0]+lines[1] {
				t.Errorf("%s in the last line: log after open is %q, want the two intact lines", damage[1], trimmed)
			}
		}
	}

	dir := t.TempDir()
	snap := `{"seq":0,"at":0,"poolt":{"a":100}}`
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := OpenStore(dir); err == nil {
		st.Close()
		t.Errorf("OpenStore accepted the snapshot %s", snap)
	}
}

func TestStoreSequencesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = st.Append(Record{Op: OpDebit, Tenant: "etl", Amount: 1})
	_ = st.Append(Record{Op: OpDebit, Tenant: "etl", Amount: 1})
	st.Close()
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = st2.Append(Record{Op: OpDebit, Tenant: "etl", Amount: 1})
	st2.Close()
	raw, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"seq":3`) {
		t.Errorf("reopened store did not continue the sequence:\n%s", raw)
	}
}

// TestStoreCompactConcurrentMutationsExact races compactions against ledger
// debits. Any debit landing "inside" a compaction must be either
// folded into the snapshot or left alive in the WAL — exactly one of the two
// — so recovery reproduces the live state bit-exactly. (All amounts are
// binary fractions, so float comparison below really is exact.)
func TestStoreCompactConcurrentMutationsExact(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := mustRegistry(t, map[string]Limits{"etl": {Budget: 4096}})
	e := NewEscrowLedger(reg, st)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	compactDone := make(chan struct{})
	go func() {
		defer close(compactDone)
		for {
			select {
			case <-stop:
				return
			default:
				if err := e.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				e.DebitLocal("etl", 0.25*float64(1+i%3))
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-compactDone

	wantPool := reg.Get("etl").Remaining()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	state := st2.State()
	if got := state.Pools["etl"]; got != wantPool {
		t.Errorf("recovered pool level = %v, want exactly %v", got, wantPool)
	}
}

// TestStoreAppendFailureLatched: a record the WAL cannot persist must be
// counted and its error kept, because the in-memory ledger has already
// mutated — silent loss would resurrect spent budget at the next boot.
func TestStoreAppendFailureLatched(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Record{Op: OpDebit, Tenant: "etl", Amount: 1}); err != nil {
		t.Fatal(err)
	}
	if n, lastErr := st.AppendFailures(); n != 0 || lastErr != nil {
		t.Fatalf("healthy store reports failures: (%d, %v)", n, lastErr)
	}
	// Sever the file under the store: appends from here on must fail loudly.
	st.wal.Close()
	if err := st.Append(Record{Op: OpDebit, Tenant: "etl", Amount: 1}); err == nil {
		t.Fatal("append to a closed WAL reported success")
	}
	if n, lastErr := st.AppendFailures(); n != 1 || lastErr == nil {
		t.Errorf("AppendFailures = (%d, %v), want (1, non-nil)", n, lastErr)
	}
}

// copyFixture copies one testdata data dir into a fresh directory.
func copyFixture(t *testing.T, fixture string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{snapshotFile, walFile} {
		raw, err := os.ReadFile(filepath.Join("testdata", fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestStoreOpensExpiringLeaseDataDir opens a data dir written while leases
// still expired: grants and snapshot leases carry an "expiry", and the log
// holds a "spent" report, a dry-pool "renew" and a "reclaim" of the lease of
// h2. It must restore the pool levels that build restored (etl 1000 - 100 -
// 50 - 10 - 30 - 5 = 805, ml drained to 0); the escrow still out on lease
// stays spent. After the boot-time anchor Compact the snapshot holds no
// lease, and a reopen restores the same levels from it.
func TestStoreOpensExpiringLeaseDataDir(t *testing.T) {
	dir := copyFixture(t, "expiring-leases")
	want := map[string]float64{"etl": 805, "ml": 0}
	restore := func() {
		t.Helper()
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		reg := mustRegistry(t, map[string]Limits{"etl": {Budget: 1000}, "ml": {Budget: 500}})
		e := NewEscrowLedger(reg, st)
		e.Restore(st.State())
		for name, level := range want {
			if got := reg.Get(name).Remaining(); got != level {
				t.Errorf("%s pool = %v, want %v", name, got, level)
			}
		}
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	restore()
	raw, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "lease") {
		t.Errorf("the anchor snapshot still lists leases:\n%s", raw)
	}
	restore()
}

// TestStoreFoldsLeaseRecords replays every record a leasing owner wrote: a
// grant debits the pool, the credit of a release returns its unspent escrow,
// and spent reports and releases move nothing.
func TestStoreFoldsLeaseRecords(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(snapshotFile, `{"seq":1,"at":0,"pools":{"etl":1000},"leases":[{"tenant":"etl","holder":"h1","escrow":50}]}`)
	write(walFile, `{"seq":2,"op":"grant","tenant":"etl","holder":"h2","amount":100}
{"seq":3,"op":"spent","tenant":"etl","holder":"h2","amount":40}
{"seq":4,"op":"credit","tenant":"etl","amount":60}
{"seq":5,"op":"release","tenant":"etl","holder":"h2"}
{"seq":6,"op":"debit","tenant":"etl","amount":7}
`)
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// h1's 50 stays spent: only its holder could have returned it.
	if got := st.State().Pools["etl"]; got != 953 {
		t.Errorf("folded level = %v, want 953 (1000 - 100 + 60 - 7)", got)
	}
}
