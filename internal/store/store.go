// Package store is a crash-safe, content-addressed result store for
// experiment cells. Keys are SHA-256 hex strings (the content address of a
// request: canonical config + seed + code version); values are the exact
// bytes a cold computation produced, so a cache hit is byte-identical to a
// recompute by construction.
//
// Crash safety is the point, not a feature: writes go to a temp file in
// the store directory, are fsynced, and only then renamed into place, so a
// reader never observes a half-written entry under its final name. Every
// entry carries a header with the payload's own SHA-256 and length;
// entries that fail verification — torn by a crash that raced the rename,
// or corrupted on disk afterwards — are quarantined (moved aside, never
// silently served) and simply miss, so the caller recomputes them. Open
// sweeps the directory, deletes leftover temp files, and verifies every
// entry, which is what makes kill -9 at any instant recoverable.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

const (
	// entrySuffix marks committed entries; tmpPattern names in-flight
	// writes (os.CreateTemp replaces the "*").
	entrySuffix = ".cell"
	tmpPattern  = ".*.tmp"
	tmpSuffix   = ".tmp"
	// quarantineDir collects entries that failed verification, for
	// postmortems; the store never reads them back.
	quarantineDir = "quarantine"
	// magic versions the entry format. The header line is
	// "flatstore1 <64-hex payload sha256> <decimal payload length>\n".
	magic = "flatstore1"
)

// Stats counts what the store has seen since Open.
type Stats struct {
	// Entries is the number of committed entries currently on disk.
	Entries int
	// TornRemoved counts leftover temp files deleted at Open — writes a
	// crash interrupted before their rename.
	TornRemoved int
	// Quarantined counts entries moved aside after failing checksum or
	// header verification, at Open or on a later Get.
	Quarantined int
	// Hits and Misses count Get outcomes.
	Hits, Misses int
}

// Store is a directory of verified entries. Methods are safe for
// concurrent use; Put is atomic (temp file + fsync + rename), so a crash
// at any instant leaves only entries that verify.
type Store struct {
	dir string

	// commitMu orders the renames that add, replace and quarantine
	// entries, so Put can tell a new entry from a replaced one. It is
	// taken before mu, which guards only the counters, so a hit never
	// waits on a rename.
	commitMu sync.Mutex
	mu       sync.Mutex
	stats    Stats
}

// ErrBadKey rejects keys that are not 64-character lowercase SHA-256 hex —
// anything else could escape the store directory or collide with its
// bookkeeping names.
var ErrBadKey = errors.New("store: key must be 64 lowercase hex characters")

// validKey reports whether key is a well-formed content address.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Open creates dir if needed and recovers it: leftover temp files from
// interrupted writes are deleted, and every committed entry is verified
// against its embedded checksum, with failures quarantined. After Open
// returns, every entry on disk is known-good.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	for _, de := range names {
		name := de.Name()
		switch {
		case de.IsDir():
			// quarantine/ and anything else a user dropped in.
		case strings.HasSuffix(name, tmpSuffix):
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("store: removing torn write %s: %w", name, err)
			}
			s.stats.TornRemoved++
		case strings.HasSuffix(name, entrySuffix):
			key := strings.TrimSuffix(name, entrySuffix)
			if !validKey(key) {
				if err := s.quarantine(name); err != nil {
					return nil, err
				}
				continue
			}
			if _, err := s.readVerified(key); err != nil {
				if errors.Is(err, errCorrupt) {
					if err := s.quarantine(name); err != nil {
						return nil, err
					}
					continue
				}
				return nil, err
			}
			s.stats.Entries++
		}
	}
	return s, nil
}

// errCorrupt marks an entry whose bytes do not verify; it never escapes
// the package — corrupt entries show up as misses after quarantine.
var errCorrupt = errors.New("store: entry failed verification")

// readVerified loads an entry and checks its header and payload hash. It
// returns errCorrupt for any malformed or mismatching entry and the
// underlying error for I/O failures; fs.ErrNotExist passes through.
func (s *Store) readVerified(key string) ([]byte, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, key+entrySuffix))
	if err != nil {
		return nil, err
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, errCorrupt
	}
	fields := strings.Fields(string(raw[:nl]))
	if len(fields) != 3 || fields[0] != magic || len(fields[1]) != 64 {
		return nil, errCorrupt
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil || n < 0 {
		return nil, errCorrupt
	}
	payload := raw[nl+1:]
	if len(payload) != n {
		return nil, errCorrupt
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != fields[1] {
		return nil, errCorrupt
	}
	return payload, nil
}

// quarantine moves a bad entry into the quarantine subdirectory.
func (s *Store) quarantine(name string) error {
	dst := filepath.Join(s.dir, quarantineDir, name)
	if err := os.Rename(filepath.Join(s.dir, name), dst); err != nil {
		return fmt.Errorf("store: quarantining %s: %w", name, err)
	}
	s.stats.Quarantined++
	return nil
}

// Get returns the entry's payload, or (nil, false, nil) on a miss. An
// entry that fails verification is quarantined and reported as a miss —
// the caller recomputes and re-Puts it.
func (s *Store) Get(key string) ([]byte, bool, error) {
	if !validKey(key) {
		return nil, false, ErrBadKey
	}
	payload, err := s.readVerified(key)
	switch {
	case err == nil:
		s.count(func(st *Stats) { st.Hits++ })
		return payload, true, nil
	case errors.Is(err, fs.ErrNotExist):
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false, nil
	case errors.Is(err, errCorrupt):
		s.commitMu.Lock()
		defer s.commitMu.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		// Re-check under the lock: a concurrent Get may have quarantined
		// (or a concurrent Put replaced) the entry already.
		if _, err := s.readVerified(key); errors.Is(err, errCorrupt) {
			if err := s.quarantine(key + entrySuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return nil, false, err
			}
			s.stats.Entries--
		}
		s.stats.Misses++
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("store: get %s: %w", key, err)
	}
}

// Put atomically commits payload under key: temp file in the store
// directory, fsync, rename into place, directory fsync. A concurrent or
// crashed duplicate Put is harmless — content addressing means both wrote
// the same bytes, and rename is atomic.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		return ErrBadKey
	}
	f, err := os.CreateTemp(s.dir, key+tmpPattern)
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		_ = f.Close()      //flatlint:ignore ignorederr best-effort cleanup on the error path; the Open sweep deletes stragglers
		_ = os.Remove(tmp) //flatlint:ignore ignorederr best-effort cleanup on the error path; the Open sweep deletes stragglers
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	sum := sha256.Sum256(payload)
	if _, err := fmt.Fprintf(f, "%s %s %d\n", magic, hex.EncodeToString(sum[:]), len(payload)); err != nil {
		return fail(err)
	}
	if _, err := f.Write(payload); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := s.commit(tmp, key); err != nil {
		_ = os.Remove(tmp) //flatlint:ignore ignorederr best-effort cleanup on the error path; the Open sweep deletes stragglers
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	return nil
}

// commit renames tmp into place as key's entry and counts the entry if it
// is new. The lookup and the rename happen under commitMu, so a Put that
// replaces an existing entry, or races another Put of the same key, leaves
// Entries unchanged.
func (s *Store) commit(tmp, key string) error {
	final := filepath.Join(s.dir, key+entrySuffix)
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	_, err := os.Lstat(final)
	exists := err == nil
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if !exists {
		s.count(func(st *Stats) { st.Entries++ })
	}
	return nil
}

// syncDir fsyncs the store directory so the rename itself is durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	if err := d.Close(); err != nil {
		return err
	}
	return syncErr
}

// count applies a stats mutation under the lock.
func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.stats)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
