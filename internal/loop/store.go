package loop

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"flowgen/internal/fault"
	"flowgen/internal/flow"
	"flowgen/internal/synth"
)

// journalRecord is one labeled flow as it sits on disk.
type journalRecord struct {
	Indices []int
	QoR     synth.QoR
}

// RetryConfig tunes how the store responds to journal write failures:
// Attempts tries per record with capped exponential backoff, then the
// store degrades to in-memory-only labeling and re-attempts the
// journal every RecoverEvery. Zero values select the documented
// defaults.
type RetryConfig struct {
	// Attempts is how many times one record append is tried before the
	// store degrades (first try included). Default 4.
	Attempts int
	// Backoff is the sleep before the first retry; it doubles per
	// retry up to MaxBackoff. Defaults 10ms and 100ms.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// RecoverEvery is the minimum interval between reopen attempts
	// while degraded. Default 3s.
	RecoverEvery time.Duration
}

func (rc RetryConfig) withDefaults() RetryConfig {
	if rc.Attempts <= 0 {
		rc.Attempts = 4
	}
	if rc.Backoff <= 0 {
		rc.Backoff = 10 * time.Millisecond
	}
	if rc.MaxBackoff <= 0 {
		rc.MaxBackoff = 100 * time.Millisecond
	}
	if rc.RecoverEvery <= 0 {
		rc.RecoverEvery = 3 * time.Second
	}
	return rc
}

// Store is the loop's labeled-flow corpus: an in-memory, deduplicated
// (flow, QoR) set mirrored to an append-only journal so the dataset
// survives restarts. Records are length-prefixed (uvarint) individually
// gob-encoded blobs — unlike a single gob stream, that makes appends
// from successive process lifetimes decodable and lets replay tolerate
// a torn tail record from a crash mid-write (the partial record is
// discarded and truncated away).
//
// The journal is treated as unreliable: appends are retried with
// capped exponential backoff (RetryConfig), a failed append rewinds
// the file to the last good record boundary before the next write so a
// torn attempt can never corrupt what follows, and when retries are
// exhausted the store degrades to in-memory-only labeling — accepting
// samples, counting what is unpersisted — and periodically tries to
// reopen the journal and replay the unpersisted tail into it.
//
// Two locks split the corpus from the journal. mu guards the corpus and
// is never held across journal I/O, so Has, Len and Snapshot — serving
// reaches Has on every predict and recommend through Loop.Observe —
// never wait on a write, its retry sleeps or a recovery rescan. jmu
// serializes the journal: its holder writes the corpus past the
// persisted prefix in corpus order, taking mu only to read that tail.
// Nothing takes jmu while holding mu.
type Store struct {
	mu    sync.Mutex
	flows []flow.Flow
	qors  []synth.QoR
	seen  map[string]struct{}

	jmu     sync.Mutex
	path    string
	rc      RetryConfig
	f       *os.File
	goodOff int64     // offset just past the last fully persisted record
	dirty   bool      // a failed write may have left torn bytes past goodOff
	lastTry time.Time // last degraded-mode reopen attempt

	// Written under jmu, read without it.
	persisted atomic.Int64 // prefix of flows[] known to be on disk
	degraded  atomic.Bool

	journalErrors  atomic.Int64 // failed write/sync attempts (incl. retries)
	journalRetries atomic.Int64 // backoff retries taken
	recoveries     atomic.Int64 // successful reopen+catch-up rounds
}

// OpenStore opens (or creates) the journal at path and replays it into
// memory, with the default RetryConfig. An empty path yields a purely
// in-memory store (no persistence) — what a bootstrapped, pathless
// server uses.
func OpenStore(path string) (*Store, error) {
	return OpenStoreWith(path, RetryConfig{})
}

// OpenStoreWith is OpenStore with an explicit journal retry policy.
func OpenStoreWith(path string, rc RetryConfig) (*Store, error) {
	s := &Store{path: path, rc: rc.withDefaults(), seen: map[string]struct{}{}}
	if path == "" {
		return s, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("loop: opening journal: %w", err)
	}
	good, err := scanJournal(f, func(rec journalRecord) {
		fl := flow.Flow{Indices: rec.Indices}
		key := fl.Key()
		if _, dup := s.seen[key]; !dup {
			s.seen[key] = struct{}{}
			s.flows = append(s.flows, fl)
			s.qors = append(s.qors, rec.QoR)
		}
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop a torn tail record (crash mid-append) so the next append
	// starts on a clean boundary.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("loop: truncating journal tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	s.f = f
	s.goodOff = good
	s.persisted.Store(int64(len(s.flows)))
	return s, nil
}

// scanJournal decodes every complete record from the journal, calls fn
// for each, and returns the offset just past the last complete one.
// Decode errors — a torn length prefix, a length running past the end
// of the file (which also guards the allocation below against a
// corrupt multi-gigabyte prefix), a body gob can't decode — end the
// scan at the last good boundary: the journal is append-only, so
// everything before the first bad byte is the longest valid prefix.
func scanJournal(f *os.File, fn func(journalRecord)) (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("loop: sizing journal: %w", err)
	}
	size := fi.Size()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	br := &journalByteReader{r: f}
	var good int64
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return good, nil // clean EOF or torn length prefix
		}
		if n > uint64(size-br.offset()) {
			return good, nil // length runs past EOF: torn or corrupt prefix
		}
		blob := make([]byte, n)
		if _, err := io.ReadFull(br, blob); err != nil {
			return good, nil // torn record body
		}
		var rec journalRecord
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&rec); err != nil {
			return good, nil // torn or trailing garbage
		}
		fn(rec)
		good = br.offset()
	}
}

// journalByteReader adapts a reader to io.ByteReader while tracking the
// offset of the last byte handed out (bufio would over-read, losing the
// truncation boundary).
type journalByteReader struct {
	r   io.Reader
	buf [1]byte
	off int64
}

func (b *journalByteReader) ReadByte() (byte, error) {
	n, err := io.ReadFull(b.r, b.buf[:1])
	b.off += int64(n)
	if err != nil {
		return 0, err
	}
	return b.buf[0], nil
}

func (b *journalByteReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.off += int64(n)
	return n, err
}

func (b *journalByteReader) offset() int64 { return b.off }

// encodeRecord renders one labeled flow into its on-disk form
// (uvarint length prefix + gob blob).
func encodeRecord(f flow.Flow, q synth.QoR) ([]byte, error) {
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(&journalRecord{Indices: f.Indices, QoR: q}); err != nil {
		return nil, fmt.Errorf("loop: encoding journal record: %w", err)
	}
	var pre [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pre[:], uint64(blob.Len()))
	return append(pre[:n], blob.Bytes()...), nil
}

// Add records one labeled flow. Returns false (without writing) when
// the flow is already in the corpus. A journal failure never rejects
// the sample: the store retries, then degrades to memory-only and
// keeps accepting (Degraded reports the state, recovery is automatic).
func (s *Store) Add(f flow.Flow, q synth.QoR) (added bool, err error) {
	key := f.Key()
	s.mu.Lock()
	if _, dup := s.seen[key]; dup {
		s.mu.Unlock()
		return false, nil
	}
	s.seen[key] = struct{}{}
	s.flows = append(s.flows, f)
	s.qors = append(s.qors, q)
	s.mu.Unlock()
	s.persist()
	return true, nil
}

// persist pushes the unpersisted tail of the corpus into the journal:
// the common case appends exactly the one record Add just admitted (or
// nothing, when a concurrent Add's persist already wrote it); while
// degraded it first re-attempts a reopen.
func (s *Store) persist() {
	if s.path == "" {
		return
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.degraded.Load() {
		s.tryRecoverLocked()
		return
	}
	if err := s.appendTailLocked(s.rc.Attempts); err != nil {
		s.degraded.Store(true)
		slog.Error("loop: journal degraded to memory-only labeling",
			"journal", s.path, "persisted", s.persisted.Load(), "corpus", s.Len(), "error", err)
	}
}

// appendTailLocked writes the corpus past the persisted prefix to the
// journal, retrying each record up to attempts times with capped
// exponential backoff. The caller holds jmu; records admitted after
// the tail is read are written by their own Add's persist.
func (s *Store) appendTailLocked(attempts int) error {
	done := s.persisted.Load()
	s.mu.Lock()
	flows, qors := s.flows[done:], s.qors[done:]
	s.mu.Unlock()
	for i, f := range flows {
		buf, err := encodeRecord(f, qors[i])
		if err != nil {
			return err // non-transient: the record itself won't encode
		}
		backoff := s.rc.Backoff
		for a := 0; ; a++ {
			err = s.writeLocked(buf)
			if err == nil {
				break
			}
			s.journalErrors.Add(1)
			if a+1 >= attempts {
				return err
			}
			s.journalRetries.Add(1)
			time.Sleep(backoff)
			if backoff *= 2; backoff > s.rc.MaxBackoff {
				backoff = s.rc.MaxBackoff
			}
		}
		s.persisted.Add(1)
	}
	return nil
}

// writeLocked appends one encoded record at the good boundary. A prior
// failed attempt may have left torn bytes past goodOff; those are
// truncated away first so a retry (or the next record) can never land
// after garbage and lose everything behind it on replay.
func (s *Store) writeLocked(buf []byte) error {
	if err := fault.Hit("loop.journal.append"); err != nil {
		s.dirty = true // an aborted write is indistinguishable from a torn one
		return err
	}
	if s.dirty {
		if err := s.f.Truncate(s.goodOff); err != nil {
			return fmt.Errorf("loop: rewinding torn journal tail: %w", err)
		}
		if _, err := s.f.Seek(s.goodOff, io.SeekStart); err != nil {
			return err
		}
		s.dirty = false
	}
	if _, err := s.f.Write(buf); err != nil {
		s.dirty = true
		return fmt.Errorf("loop: appending journal record: %w", err)
	}
	s.goodOff += int64(len(buf))
	return nil
}

// tryRecoverLocked attempts to leave degraded mode: reopen the journal,
// rescan it for the good boundary and persisted prefix, and replay the
// unpersisted in-memory tail into it. Attempts are rate-limited by
// RecoverEvery; any failure stays degraded until the next one.
func (s *Store) tryRecoverLocked() {
	if time.Since(s.lastTry) < s.rc.RecoverEvery {
		return
	}
	s.lastTry = time.Now()
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		s.journalErrors.Add(1)
		return
	}
	// Rescan rather than trust goodOff: whatever hurt the journal may
	// have truncated or replaced the file. The persisted prefix is the
	// count of unique records — in-memory insertion order matches
	// journal order, so flows[:unique] is exactly what's on disk.
	seen := make(map[string]struct{})
	unique := 0
	good, err := scanJournal(f, func(rec journalRecord) {
		key := flow.Flow{Indices: rec.Indices}.Key()
		if _, dup := seen[key]; !dup {
			seen[key] = struct{}{}
			unique++
		}
	})
	if err != nil || f.Truncate(good) != nil {
		s.journalErrors.Add(1)
		f.Close()
		return
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		s.journalErrors.Add(1)
		f.Close()
		return
	}
	s.f = f
	s.goodOff = good
	s.dirty = false
	// Another writer may have grown the journal; replay owns the rest.
	s.persisted.Store(int64(min(unique, s.Len())))
	// Catch up: single attempt per record — if the fault persists, the
	// next RecoverEvery tick retries from wherever this stopped.
	if err := s.appendTailLocked(1); err != nil {
		return
	}
	s.degraded.Store(false)
	s.recoveries.Add(1)
	slog.Info("loop: journal recovered from degraded mode",
		"journal", s.path, "persisted", s.persisted.Load(), "corpus", s.Len())
}

// Sync fsyncs the journal to stable storage — the drain path calls it
// so accepted labels survive the power going out right after. Degraded
// or in-memory stores return the count of unpersisted samples in the
// error so the caller can report what a crash would lose.
func (s *Store) Sync() error {
	if s.path == "" {
		return nil
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.degraded.Load() {
		// One last chance to come back before reporting data at risk.
		s.lastTry = time.Time{}
		s.tryRecoverLocked()
	}
	if s.degraded.Load() || s.f == nil {
		return fmt.Errorf("loop: journal degraded, %d samples unpersisted", s.Len()-int(s.persisted.Load()))
	}
	if err := fault.Hit("loop.journal.sync"); err != nil {
		s.journalErrors.Add(1)
		return err
	}
	if err := s.f.Sync(); err != nil {
		s.journalErrors.Add(1)
		return fmt.Errorf("loop: syncing journal: %w", err)
	}
	return nil
}

// Len returns the corpus size.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flows)
}

// Has reports whether the flow is already labeled.
func (s *Store) Has(f flow.Flow) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.seen[f.Key()]
	return ok
}

// Degraded reports whether the store is in memory-only degraded mode
// after exhausting journal write retries.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// Persisted returns how many corpus samples are known to be on disk.
func (s *Store) Persisted() int { return int(s.persisted.Load()) }

// JournalErrors returns the cumulative failed journal operations
// (including retried attempts); JournalRetries the backoff retries
// taken; Recoveries the successful degraded-mode recoveries.
func (s *Store) JournalErrors() int64  { return s.journalErrors.Load() }
func (s *Store) JournalRetries() int64 { return s.journalRetries.Load() }
func (s *Store) Recoveries() int64     { return s.recoveries.Load() }

// Snapshot returns copies of the corpus in insertion order — stable
// across restarts, which keeps the retrainer's stride-based holdout
// split consistent.
func (s *Store) Snapshot() ([]flow.Flow, []synth.QoR) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]flow.Flow(nil), s.flows...), append([]synth.QoR(nil), s.qors...)
}

// Close flushes and closes the journal file (no-op in memory-only
// mode). The store must not be used afterwards.
func (s *Store) Close() error {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
