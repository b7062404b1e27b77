// Package store is a content-addressed artifact store on the local
// filesystem: artifacts keyed by the canonical hash of what produced
// them (a spec's JSON, the rng stream version and the GOARCH that
// computed them), so that re-running the same work is a cache hit and
// an interrupted campaign resumes from its journal for free.
//
// Layout: <root>/<kind>/<kk>/<key>, where kind namespaces artifact
// types, key is the hex SHA-256 of the inputs and kk its first two hex
// digits (a fan-out level keeping directories small). Two kinds live
// there: "tracelab" (one fitted trace lab per blob) and "campaign" (one
// coordinator campaign's journal per file).
//
// The two kinds use the two write disciplines the store offers. Put
// writes a whole blob to a temp file in the same directory and renames
// it into place, so readers never observe a partial blob and concurrent
// writers of the same key are idempotent. Append adds one
// length-prefixed record to an O_APPEND file in a single write, so
// concurrent appenders interleave whole records; Records reads them
// back and cuts a torn tail (a crash mid-append) back to the last whole
// record. The store carries no manifest or integrity metadata of its
// own: keys bind artifacts to their inputs, and corruption detection is
// the artifact decoder's job — a caller that fails to decode a blob
// Deletes it and rebuilds, one that fails to decode a record skips it.
//
// Pruning is plain filesystem hygiene: `rm -rf <root>/<kind>` drops
// one artifact class, removing the root drops everything; the next
// run rebuilds what it needs.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Store is a content-addressed artifact store rooted at one directory.
// All methods are safe for concurrent use, across goroutines and
// across processes sharing the root.
type Store struct {
	root string
}

// Open prepares a store rooted at dir, creating it if absent.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty root directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Key derives the content address of an artifact from the parts that
// determine it — typically a canonical spec JSON and rng.StreamVersion.
// Parts are length-framed before hashing so distinct part lists never
// collide by concatenation.
func Key(parts ...string) string {
	h := sha256.New()
	var frame [8]byte
	for _, p := range parts {
		n := len(p)
		for i := range frame {
			frame[i] = byte(n >> (8 * i))
		}
		h.Write(frame[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// path maps (kind, key) to the blob's location, rejecting names that
// would escape the root.
func (s *Store) path(kind, key string) (string, error) {
	if kind == "" || strings.ContainsAny(kind, "/\\.") {
		return "", fmt.Errorf("store: invalid artifact kind %q", kind)
	}
	if len(key) < 2 || strings.ContainsAny(key, "/\\.") {
		return "", fmt.Errorf("store: invalid key %q", key)
	}
	return filepath.Join(s.root, kind, key[:2], key), nil
}

// Get returns the blob stored under (kind, key), or ok=false when the
// store has no such artifact. Errors are real I/O failures.
func (s *Store) Get(kind, key string) (blob []byte, ok bool, err error) {
	p, err := s.path(kind, key)
	if err != nil {
		return nil, false, err
	}
	blob, err = os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	return blob, true, nil
}

// GetMapped is Get plus a release func that does nothing. It is kept
// for callers written against the former memory-mapped read path (the
// benchmark's store probe); new code calls Get.
func (s *Store) GetMapped(kind, key string) (blob []byte, release func(), ok bool, err error) {
	blob, ok, err = s.Get(kind, key)
	if !ok {
		return blob, nil, ok, err
	}
	return blob, func() {}, true, nil
}

// Put stores blob under (kind, key) atomically: a reader concurrently
// Getting the key sees either nothing or the whole blob, never a
// partial write. Re-putting an existing key replaces it.
func (s *Store) Put(kind, key string, blob []byte) error {
	p, err := s.path(kind, key)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+key+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// recordPrefix is the size of a journal record's length prefix: the
// payload length as a little-endian uint32.
const recordPrefix = 4

// Append adds record to the journal stored under (kind, key), creating
// it if absent. The length prefix and the payload go out in one write
// to an O_APPEND file, so appenders sharing the journal — goroutines or
// processes — interleave whole records and never split one another's.
// A crash mid-write leaves a torn tail, which the next Records cuts off.
func (s *Store) Append(kind, key string, record []byte) error {
	p, err := s.path(kind, key)
	if err != nil {
		return err
	}
	if uint64(len(record)) > math.MaxUint32 {
		return fmt.Errorf("store: %d-byte record exceeds the journal's 4 GiB frame", len(record))
	}
	frame := make([]byte, recordPrefix+len(record))
	binary.LittleEndian.PutUint32(frame, uint32(len(record)))
	copy(frame[recordPrefix:], record)
	const flags = os.O_WRONLY | os.O_APPEND | os.O_CREATE
	f, err := os.OpenFile(p, flags, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		f, err = os.OpenFile(p, flags, 0o644)
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = f.Write(frame)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Records returns the whole records of the journal stored under (kind,
// key), in append order; an absent journal has none. A torn tail — a
// prefix, or a length that runs past the end of the file — is truncated
// back to the last whole record, so the next Append frames correctly.
// Another process's Append may still be landing when the tail looks
// torn, so Records reads the journal a second time before it cuts; an
// Append that is still in flight then may lose its record. A record
// only saves recomputing what it holds, so a lost one costs a
// recompute, never a wrong result.
func (s *Store) Records(kind, key string) ([][]byte, error) {
	p, err := s.path(kind, key)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		data, err := os.ReadFile(p)
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		var recs [][]byte
		off := 0
		for len(data)-off >= recordPrefix {
			n := binary.LittleEndian.Uint32(data[off:])
			if uint64(n) > uint64(len(data)-off-recordPrefix) {
				break
			}
			end := off + recordPrefix + int(n)
			recs = append(recs, data[off+recordPrefix:end:end])
			off = end
		}
		if off == len(data) {
			return recs, nil
		}
		if attempt == 0 {
			continue
		}
		if err := os.Truncate(p, int64(off)); err != nil {
			return recs, fmt.Errorf("store: cutting a torn journal tail: %w", err)
		}
		return recs, nil
	}
}

// Delete drops the artifact stored under (kind, key); deleting an
// absent key is a no-op. Callers use it to evict blobs that failed to
// decode before rebuilding them.
func (s *Store) Delete(kind, key string) error {
	p, err := s.path(kind, key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// EnvStore names the environment variable that points the process-wide
// default store at a directory. Unset, the default store is nil and
// every caller-side cache check is skipped — runs stay hermetic unless
// persistence is asked for (the env var or the -store flag).
const EnvStore = "CHAFFMEC_STORE"

var (
	defaultMu   sync.Mutex
	defaultSet  bool
	defaultStor *Store
)

// Default returns the process-wide store: the one installed by
// SetDefault, else one rooted at $CHAFFMEC_STORE, else nil (no
// persistence). A nil *Store is a valid "disabled" value — guard use
// sites with a nil check.
func Default() *Store {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if !defaultSet {
		defaultSet = true
		if dir := os.Getenv(EnvStore); dir != "" {
			s, err := Open(dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "store: disabled: %v\n", err)
			} else {
				defaultStor = s
			}
		}
	}
	return defaultStor
}

// SetDefault installs (or, with nil, disables) the process-wide store.
func SetDefault(s *Store) {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	defaultSet = true
	defaultStor = s
}
