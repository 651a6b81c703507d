package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testKey(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundtrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, body := testKey("a"), []byte("# table\nk\tv\n4\t1.0\n")
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("expected clean miss, got ok=%v err=%v", ok, err)
	}
	if err := s.Put(key, body); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %v, %v; want stored body", got, ok, err)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v; want 1 entry, 1 hit, 1 miss", st)
	}

	// A fresh Open of the same directory serves the same bytes.
	s2, err := Open(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err = s2.Get(key)
	if err != nil || !ok || !bytes.Equal(got, body) {
		t.Fatalf("reopened Get = %q, %v, %v", got, ok, err)
	}
	if st := s2.Stats(); st.Entries != 1 {
		t.Errorf("reopened stats = %+v; want 1 entry", st)
	}
}

func TestBadKeysRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"", "short", strings.Repeat("g", 64), strings.Repeat("A", 64),
		"../../../../etc/passwd" + strings.Repeat("0", 42),
	} {
		if err := s.Put(key, []byte("x")); !errors.Is(err, ErrBadKey) {
			t.Errorf("Put(%q) = %v; want ErrBadKey", key, err)
		}
		if _, _, err := s.Get(key); !errors.Is(err, ErrBadKey) {
			t.Errorf("Get(%q) = %v; want ErrBadKey", key, err)
		}
	}
}

// TestOpenRecoversTornAndCorrupt plants the two crash artifacts by hand —
// a leftover temp file and a committed entry whose bytes no longer verify
// — and pins Open's sweep: temp deleted, corrupt quarantined, good entry
// kept.
func TestOpenRecoversTornAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := testKey("good"), testKey("bad")
	if err := s.Put(good, []byte("good body")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(bad, []byte("bad body")); err != nil {
		t.Fatal(err)
	}
	// Corrupt one entry in place (flip a payload byte past the header).
	path := filepath.Join(dir, bad+entrySuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A torn write: temp file that never reached its rename.
	if err := os.WriteFile(filepath.Join(dir, good+".123.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a truncated entry (crash mid-write would leave this only under
	// a .tmp name, but disk corruption can truncate committed files too).
	trunc := testKey("trunc")
	if err := os.WriteFile(filepath.Join(dir, trunc+entrySuffix), []byte("flatstore1 "), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.Entries != 1 || st.TornRemoved != 1 || st.Quarantined != 2 {
		t.Fatalf("recovery stats = %+v; want 1 entry, 1 torn removed, 2 quarantined", st)
	}
	if _, ok, err := s2.Get(good); err != nil || !ok {
		t.Errorf("good entry lost: ok=%v err=%v", ok, err)
	}
	for _, key := range []string{bad, trunc} {
		if _, ok, err := s2.Get(key); err != nil || ok {
			t.Errorf("corrupt entry %s still serves: ok=%v err=%v", key[:8], ok, err)
		}
	}
	// The quarantined bytes are preserved for postmortems.
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, bad+entrySuffix)); err != nil {
		t.Errorf("quarantined entry missing: %v", err)
	}
	// Recompute-and-re-Put restores service for the quarantined address.
	if err := s2.Put(bad, []byte("bad body")); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s2.Get(bad); err != nil || !ok || string(got) != "bad body" {
		t.Errorf("re-put entry: %q, %v, %v", got, ok, err)
	}
}

// TestGetQuarantinesCorruptEntry covers corruption detected after Open:
// the poisoned entry turns into a miss, not an error or wrong bytes.
func TestGetQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("x")
	if err := s.Put(key, []byte("body")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+entrySuffix)
	if err := os.WriteFile(path, []byte("flatstore1 deadbeef 4\nbody"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("corrupt Get = ok=%v err=%v; want miss", ok, err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt entry still in place: %v", err)
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v; want 1 quarantined, 0 entries", st)
	}
}

// TestConcurrentPutGet exercises the store under the race detector:
// concurrent writers and readers over a small key space must never see an
// error or a torn read.
func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 4)
	bodies := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = testKey(fmt.Sprint(i))
		bodies[i] = bytes.Repeat([]byte{byte('a' + i)}, 1024)
	}
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 16; i++ {
				if err := s.Put(keys[(w+i)%len(keys)], bodies[(w+i)%len(keys)]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
		go func(w int) {
			for i := 0; i < 64; i++ {
				ki := (w + i) % len(keys)
				got, ok, err := s.Get(keys[ki])
				if err != nil {
					done <- err
					return
				}
				if ok && !bytes.Equal(got, bodies[ki]) {
					done <- fmt.Errorf("torn read on key %d", ki)
					return
				}
			}
			done <- nil
		}(w)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
