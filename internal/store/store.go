// Package store is the one content-addressed result store: a directory of
// sealed entries keyed by sha256 digest, optionally fronted by a bounded
// in-memory LRU.  cobra-serve keeps its rendered results in one and
// cobra-compose its fleet service outputs in another; both get the same
// guarantees.
//
// Entries are corruption-proof: every file carries a sha256 footer over its
// payload, writes go through a fsynced temp file + atomic rename, and an
// entry that fails verification on read is quarantined (renamed *.corrupt,
// reported to the store's onCorrupt callback) and treated as a miss — a
// flipped bit on disk is recomputed, never replayed as truth.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
)

// keyRE is the only key shape the store accepts.  Keys come back in from
// URLs, so anything else must be rejected before it reaches a file path.
var keyRE = regexp.MustCompile(`^sha256:[0-9a-f]{64}$`)

// ValidKey reports whether key is a well-formed digest ("sha256:" + 64
// lowercase hex digits).
func ValidKey(key string) bool { return keyRE.MatchString(key) }

// Entry footer: "\n" + footerMagic + 64 hex digits + "\n", appended after the
// payload.  The newline prefix keeps the payload visually separable when a
// human cats the file; verification never relies on it being JSON.
const footerMagic = "#cobra-entry-v1 sha256="

// footerLen is the exact on-disk footer size.
const footerLen = 1 + len(footerMagic) + sha256.Size*2 + 1

// Seal appends the integrity footer to a payload.
func Seal(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(payload)+footerLen)
	out = append(out, payload...)
	out = append(out, '\n')
	out = append(out, footerMagic...)
	out = append(out, hex.EncodeToString(sum[:])...)
	out = append(out, '\n')
	return out
}

// Open verifies a sealed entry and returns its payload, or an error saying
// why the bytes are untrustworthy.
func Open(data []byte) ([]byte, error) {
	if len(data) < footerLen {
		return nil, errors.New("entry shorter than integrity footer")
	}
	payload, footer := data[:len(data)-footerLen], data[len(data)-footerLen:]
	if footer[0] != '\n' || footer[len(footer)-1] != '\n' ||
		!bytes.HasPrefix(footer[1:], []byte(footerMagic)) {
		return nil, errors.New("missing integrity footer")
	}
	want := string(footer[1+len(footerMagic) : len(footer)-1])
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != want {
		return nil, fmt.Errorf("payload sha256 %s != footer %s", got, want)
	}
	return payload, nil
}

// WriteAtomic publishes data at path through a fsynced temp file in the same
// directory and a rename, so a concurrent reader or a mid-write crash never
// sees a torn file under the real name.
func WriteAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck
	}
	return err
}

// Store is a content-addressed store of byte values.  Values are stored and
// returned as the exact bytes put, so a hit is byte-identical to the first
// computation.  Safe for concurrent use.
type Store struct {
	dir string // "" = memory only
	// suffix versions the on-disk filenames (e.g. ".r5.json"): bumping a
	// payload schema orphans old files into deliberate misses rather than
	// handing callers bytes in a shape they no longer expect.
	suffix    string
	max       int // in-memory LRU bound; 0 = no memory layer
	onCorrupt func(path, reason string)

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val []byte
}

// New returns a store over the existing directory dir ("" keeps entries in
// memory only) naming each entry file <hex digest><suffix>.  memEntries
// bounds the in-memory LRU in front of the directory (0 disables it).
// onCorrupt, when non-nil, observes every quarantined entry.
func New(dir, suffix string, memEntries int, onCorrupt func(path, reason string)) *Store {
	return &Store{dir: dir, suffix: suffix, max: memEntries, onCorrupt: onCorrupt,
		ll: list.New(), items: make(map[string]*list.Element)}
}

// Path is the file that holds key's entry.
func (s *Store) Path(key string) string {
	return filepath.Join(s.dir, key[len("sha256:"):]+s.suffix)
}

// Get returns the stored bytes for key, consulting memory first and then the
// directory (promoting a verified disk hit into memory).  A disk entry that
// fails verification is quarantined and reported as a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		val := el.Value.(*lruEntry).val
		s.mu.Unlock()
		return val, true
	}
	s.mu.Unlock()
	if s.dir == "" {
		return nil, false
	}
	path := s.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	val, err := Open(data)
	if err != nil {
		s.quarantine(path, err.Error())
		return nil, false
	}
	s.putMem(key, val)
	return val, true
}

// quarantine moves a failed entry aside as <path>.corrupt so it is never
// served again but stays on disk for a post-mortem, then reports it.
func (s *Store) quarantine(path, reason string) {
	if err := os.Rename(path, path+".corrupt"); err != nil {
		// Rename failing (another reader already quarantined it, or the file
		// vanished) still must not let the entry be served: remove our view.
		os.Remove(path) //nolint:errcheck
	}
	if s.onCorrupt != nil {
		s.onCorrupt(path, reason)
	}
}

// Put stores val under key in memory and, when the store has a directory,
// as a sealed entry on disk.  The memory copy is kept even when the disk
// write fails; the error reports that failure.
func (s *Store) Put(key string, val []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.putMem(key, val)
	if s.dir == "" {
		return nil
	}
	if err := WriteAtomic(s.Path(key), Seal(val)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func (s *Store) putMem(key string, val []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	s.items[key] = s.ll.PushFront(&lruEntry{key, val})
	for s.ll.Len() > s.max {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*lruEntry).key)
	}
}

// Len reports the number of in-memory entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}
