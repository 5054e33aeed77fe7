package tenant

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Store is the durability layer under one chronosd -data-dir: a point-in-time
// snapshot of every pool level, plus an append-only WAL of the authoritative
// debits since that snapshot. On boot the snapshot is loaded and the WAL
// replayed on top, so a restarted pool owner resumes with exactly the levels
// it had — no lost and no duplicated debits.
//
// WAL records are deltas relative to the snapshot they follow, so the owner
// must Compact an anchor snapshot once at boot (after EscrowLedger.Restore)
// before serving; from then on every record replays against known levels.
// Records carry a monotonic sequence number and the snapshot remembers the
// last sequence it folded in, so a crash between "snapshot written" and "WAL
// truncated" replays nothing twice. WAL appends are flushed to the OS per
// record but not fsynced: a process crash loses none of them, a machine crash
// can lose the last few, and their debits then return to the pool.
type Store struct {
	mu   sync.Mutex
	dir  string
	wal  *os.File
	w    *bufio.Writer
	seq  uint64
	snap Snapshot // state as recovered at OpenStore time

	// Append-failure latch: a record that could not be written means the next
	// boot restores state above its true spend — the serving layer surfaces
	// this as a health condition rather than silently resurrecting budget.
	appendFails atomic.Uint64
	appendErr   error // last failure, under mu
}

// Op names one WAL record type.
type Op string

// OpDebit is an authoritative debit against a pool: an admit its owner
// decided. It is the only op written; replay also reads the ops of data dirs
// from when pools leased escrow to other replicas (see decodeRecord).
const OpDebit Op = "debit"

// Record is one WAL entry.
type Record struct {
	Seq    uint64  `json:"seq"`
	Op     Op      `json:"op"`
	Tenant string  `json:"tenant"`
	Amount float64 `json:"amount,omitempty"`
}

// Snapshot is the durable point-in-time ledger state.
type Snapshot struct {
	// Seq is the last WAL sequence folded into this snapshot; replay skips
	// records at or below it.
	Seq uint64 `json:"seq"`
	// AtUnixNano stamps when the snapshot was taken.
	AtUnixNano int64 `json:"at"`
	// Pools maps tenant name to ledger level.
	Pools map[string]float64 `json:"pools"`
}

const (
	snapshotFile = "escrow-snapshot.json"
	walFile      = "escrow-wal.ndjson"
)

// OpenStore opens (creating if needed) the durability directory, recovers the
// snapshot+WAL state, and leaves the WAL open for appends. The recovered
// state is available via State until the next Compact.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tenant: data dir: %w", err)
	}
	s := &Store{dir: dir}
	if err := s.recover(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tenant: wal: %w", err)
	}
	s.wal = f
	s.w = bufio.NewWriter(f)
	return s, nil
}

// State returns the ledger state recovered at open: pool levels with WAL
// replay already applied.
func (s *Store) State() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// recover loads the snapshot file and folds the WAL into it.
func (s *Store) recover() error {
	snap := Snapshot{Pools: map[string]float64{}}
	raw, err := os.ReadFile(filepath.Join(s.dir, snapshotFile))
	switch {
	case err == nil:
		// Strict, like a WAL line: with a damaged "pools" key a lenient
		// decode restored every pool full. Snapshots from when pools leased
		// escrow list the outstanding leases; the grants behind them already
		// debited the pool levels, and their holders can no longer return
		// them, so they are read and counted as spent.
		var doc struct {
			Snapshot
			Leases json.RawMessage `json:"leases"`
		}
		if err := decodeStrict(raw, &doc); err != nil {
			return fmt.Errorf("tenant: snapshot %s: %w", snapshotFile, err)
		}
		snap = doc.Snapshot
		if snap.Pools == nil {
			snap.Pools = map[string]float64{}
		}
	case errors.Is(err, os.ErrNotExist):
		// First boot: empty state.
	default:
		return fmt.Errorf("tenant: snapshot: %w", err)
	}
	s.seq = snap.Seq

	walPath := filepath.Join(s.dir, walFile)
	f, err := os.OpenFile(walPath, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		s.snap = snap
		return nil
	}
	if err != nil {
		return fmt.Errorf("tenant: wal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	// start and off are the byte offsets the line just scanned begins and
	// ends at; terminated says whether it ended in a newline.
	var start, off int64
	terminated := true
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if adv > 0 {
			start, off = off, off+int64(adv)
			terminated = adv > len(tok)
		}
		return adv, tok, err
	})
	lineNo, torn, tornAt := 0, 0, int64(0)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if torn != 0 {
			// A crash tears only the append it interrupts, and the owner's
			// boot-time anchor Compact truncates the log before the next
			// process life appends — so a record after an undecodable line
			// means the log is damaged, and skipping the line (or stopping at
			// it) would restore budget that was spent.
			return fmt.Errorf("tenant: wal %s: line %d is corrupt and records follow it; refusing to restore levels above their true spend", walFile, torn)
		}
		rec, err := decodeRecord(line)
		if err != nil {
			// So far a torn final append from a crash: everything before it
			// is intact, and if nothing follows the boot goes on without it.
			torn, tornAt = lineNo, start
			continue
		}
		if rec.Seq <= snap.Seq {
			continue // already folded into the snapshot
		}
		if rec.Seq > s.seq {
			s.seq = rec.Seq
		}
		applyRecord(&snap, rec)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("tenant: wal replay: %w", err)
	}
	// The log is reopened for appending: left as it is, a torn tail (or an
	// intact last line the crash cut before its newline) would have the next
	// record glued onto it, and the boot after that would read one corrupt
	// line. Cut the fragment; end the line.
	if torn != 0 {
		err = f.Truncate(tornAt)
	} else if !terminated {
		_, err = f.WriteAt([]byte{'\n'}, off)
	}
	if err != nil {
		return fmt.Errorf("tenant: wal tail repair: %w", err)
	}
	s.snap = snap
	return nil
}

// decodeRecord decodes one WAL line. A key a Record does not have or an op
// replay does not know makes the line undecodable, like a torn one: decoded
// leniently, one damaged byte in "debit", "amount" or "tenant" replayed a
// debit as nothing and brought its spend back. Logs from when pools leased
// escrow also hold a holder on lease records, and from when leases expired
// an expiry on grants.
func decodeRecord(line []byte) (Record, error) {
	var rec struct {
		Record
		Holder json.RawMessage `json:"holder"`
		Expiry json.RawMessage `json:"expiry"`
	}
	if err := decodeStrict(line, &rec); err != nil {
		return Record{}, err
	}
	switch rec.Op {
	case OpDebit, "grant", "credit", "spent", "release", "renew", "reclaim":
		return rec.Record, nil
	}
	return Record{}, fmt.Errorf("unknown op %q", rec.Op)
}

// applyRecord folds one WAL record into the in-memory pool levels. Of the
// lease ops, a grant debited its pool and a credit returned a released
// lease's unspent escrow to it; the others ("spent", "release", "renew",
// "reclaim") moved only escrow already out of the pool. Levels here are raw
// numbers; clamping to [0, budget] happens when the state is loaded into a
// live Registry (whose config may have changed since the record was
// written).
func applyRecord(snap *Snapshot, rec Record) {
	switch rec.Op {
	case OpDebit, "grant":
		snap.Pools[rec.Tenant] -= rec.Amount
		if snap.Pools[rec.Tenant] < 0 {
			snap.Pools[rec.Tenant] = 0
		}
	case "credit":
		snap.Pools[rec.Tenant] += rec.Amount
	}
}

// Append writes one record to the WAL, assigning its sequence number. A
// failure is latched (see AppendFailures) as well as returned: the in-memory
// ledger has already mutated by the time it logs, so a dropped record cannot
// be rolled back, only surfaced.
func (s *Store) Append(rec Record) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	rec.Seq = s.seq
	err := s.appendLocked(rec)
	if err != nil {
		s.appendFails.Add(1)
		s.appendErr = err
	}
	return err
}

func (s *Store) appendLocked(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		return err
	}
	return s.w.Flush()
}

// AppendFailures reports how many WAL appends have failed since open, with
// the most recent error. Nonzero means the durable state under-records spend
// and a restart can resurrect spent budget. Nil-safe.
func (s *Store) AppendFailures() (uint64, error) {
	if s == nil {
		return 0, nil
	}
	n := s.appendFails.Load()
	if n == 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return n, s.appendErr
}

// Compact writes a fresh snapshot of the given state and truncates the WAL.
// The snapshot lands via writeFileDurable, so a crash mid-compaction leaves
// either the old snapshot (plus the intact WAL) or the new one; the stored
// sequence number makes leftover WAL records idempotent.
func (s *Store) Compact(pools map[string]float64) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Seq:        s.seq,
		AtUnixNano: time.Now().UnixNano(),
		Pools:      pools,
	}
	raw, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return err
	}
	// The snapshot must be on disk before the records it folds in are
	// truncated away, or a power loss leaves neither.
	if err := writeFileDurable(filepath.Join(s.dir, snapshotFile), raw); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return err
	}
	s.w.Reset(s.wal)
	return nil
}

// writeFileDurable replaces the file at path with data, atomically and
// durably: temp file, File.Sync (the contents reach disk before the rename
// can), rename, then a directory fsync (the rename itself reaches disk — a
// rename alone only orders the metadata in the page cache).
func writeFileDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// Close flushes and closes the WAL. The caller should Compact first on a
// graceful shutdown so boot does not replay the whole log.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
