// Package store is the persistent verdict store: a content-addressed,
// engine-versioned cache of decided correspondences, transfer certificates
// and quotients on disk.
//
// The paper's workflow re-establishes the same facts over and over — every
// full-battery run decides the cutoff correspondence M_cutoff ~ M_n for the
// same topologies, sizes and vocabularies.  Those verdicts are pure
// functions of (what was decided, which engine semantics decided it), so
// they can be cached across processes.  An entry's file name is the SHA-256
// of its key, and the key bakes in the engine version: any semantic change
// to the decision procedures must bump EngineVersion, after which every old
// entry misses and is transparently recomputed.  Nothing in this package is
// trusted on the read path — an entry is a header line that echoes its key
// and carries the digest of the payload bytes after it, and a corrupt,
// truncated, tampered or version-skewed file is counted, logged and
// treated as a miss, never returned.
//
// Writes go through a temp file in the store directory followed by an
// atomic rename, so concurrent sessions sharing one directory never observe
// torn entries; the worst case of a racing double-write is one entry
// replacing an identical one.  A nil *Store is a valid no-op store, which
// is how the rest of the repository spells "caching disabled".
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// EngineVersion identifies the semantics of the decision engines whose
// verdicts this package caches.  It MUST be bumped whenever internal/bisim,
// internal/family or the model checker change observable behaviour —
// relations, degrees, evidence, certificate contents — so stale entries
// miss instead of resurrecting old semantics.
const EngineVersion = "bcg-engines-v10"

// Key addresses one cached verdict.  Every field participates in the
// content hash, as does EngineVersion.
type Key struct {
	// Kind separates record types sharing a store ("correspondence",
	// "certificate", "quotient", ...).
	Kind string `json:"kind"`
	// Topology names the family ("ring", "star", ...), or is empty for
	// records not tied to one.
	Topology string `json:"topology,omitempty"`
	// Small and Large are the instance sizes of the decision (cutoff size
	// and family size for correspondences; Large alone for quotients).
	Small int `json:"small,omitempty"`
	Large int `json:"large,omitempty"`
	// Atoms is the compared vocabulary (the "exactly one" atom names);
	// order-insensitive.
	Atoms []string `json:"atoms,omitempty"`
	// ReachableOnly mirrors bisim.Options.ReachableOnly, which changes
	// verdicts.
	ReachableOnly bool `json:"reachable_only,omitempty"`
}

// Hash returns the content address of the key: the hex SHA-256 of its
// canonical JSON together with EngineVersion.
func (k Key) Hash() string {
	canon := k
	canon.Atoms = append([]string(nil), k.Atoms...)
	sort.Strings(canon.Atoms)
	blob, err := json.Marshal(struct {
		EngineVersion string `json:"engine_version"`
		Key           Key    `json:"key"`
	}{EngineVersion, canon})
	if err != nil {
		// Key is a struct of plain strings/ints/bools; Marshal cannot fail.
		panic(fmt.Sprintf("store: marshalling key: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// header is the first line of an entry file.  The payload's bytes follow
// the line's newline verbatim, so a read checks the digest over them in
// place and decodes them once.  encoding/json escapes newlines inside
// strings, so the header's own encoding never contains one.
type header struct {
	// EngineVersion and Key echo what the entry was written for; the read
	// path re-derives the expected values and discards mismatches.
	EngineVersion string `json:"engine_version"`
	Key           Key    `json:"key"`
	// PayloadSHA256 is the hex digest of the payload bytes.
	PayloadSHA256 string `json:"payload_sha256"`
}

// Stats is a snapshot of a store's counters.
type Stats struct {
	// Hits counts Gets that returned a valid entry; Misses counts Gets
	// that found no file.  Invalid counts entries that existed but were
	// rejected (corrupt, truncated, wrong version, wrong key) — such Gets
	// report a miss to the caller but are not counted under Misses.
	Hits, Misses, Invalid int64
	// Writes counts successful Puts.
	Writes int64
}

// Store is a verdict store rooted at one directory.  The zero value and
// the nil pointer are valid no-op stores: every Get misses, every Put is
// dropped.  All methods are safe for concurrent use, including across
// processes sharing the directory.
type Store struct {
	dir string
	// Logf receives one line per rejected entry and per dropped write
	// (default log.Printf).  Set it before the store is shared.
	Logf func(format string, args ...any)

	hits, misses, invalid, writes atomic.Int64
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	return &Store{dir: dir, Logf: log.Printf}, nil
}

// Dir returns the store's directory ("" for a no-op store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

func (s *Store) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash+".json")
}

// Get looks the key up and, on a valid hit, unmarshals the stored payload
// into `into` and returns true.  A *json.RawMessage target receives the
// payload bytes themselves, once they are checked to be valid JSON, not a
// copy.  A missing file is a plain miss; an existing file that fails any
// integrity check (header syntax, engine version, key echo, payload
// digest, payload syntax) is logged, counted under Invalid, and reported
// as a miss so the caller recomputes.  I/O errors other than non-existence
// are returned.
func (s *Store) Get(key Key, into any) (bool, error) {
	if s == nil || s.dir == "" {
		return false, nil
	}
	hash := key.Hash()
	blob, err := os.ReadFile(s.path(hash))
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Add(1)
			return false, nil
		}
		return false, fmt.Errorf("store: reading %s: %w", s.path(hash), err)
	}
	reject := func(reason string) (bool, error) {
		s.invalid.Add(1)
		s.logf("store: discarding %s (%s %s/%d~%d): %s", s.path(hash), key.Kind, key.Topology, key.Small, key.Large, reason)
		return false, nil
	}
	line, payload, found := bytes.Cut(blob, []byte{'\n'})
	if !found {
		return reject("no header line")
	}
	var h header
	if err := json.Unmarshal(line, &h); err != nil {
		return reject(fmt.Sprintf("corrupt header: %v", err))
	}
	if h.EngineVersion != EngineVersion {
		return reject(fmt.Sprintf("engine version %q, want %q", h.EngineVersion, EngineVersion))
	}
	if h.Key.Hash() != hash {
		return reject("key echo does not match the file's address")
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.PayloadSHA256 {
		return reject("payload digest mismatch")
	}
	if raw, ok := into.(*json.RawMessage); ok {
		if !json.Valid(payload) {
			return reject("corrupt payload: not valid JSON")
		}
		*raw = payload
	} else if err := json.Unmarshal(payload, into); err != nil {
		return reject(fmt.Sprintf("corrupt payload: %v", err))
	}
	s.hits.Add(1)
	return true, nil
}

// Put serialises the payload under the key.  The entry is written to a
// temp file in the store directory and renamed into place, so readers —
// in this process or another — see either the old entry or the complete
// new one.  Put failures are returned but safe to ignore: the store is a
// cache, and a failed write only costs a future recompute.
func (s *Store) Put(key Key, payload any) error {
	if s == nil || s.dir == "" {
		return nil
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("store: marshalling payload for %s: %w", key.Kind, err)
	}
	sum := sha256.Sum256(raw)
	line, err := json.Marshal(header{
		EngineVersion: EngineVersion,
		Key:           key,
		PayloadSHA256: hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return fmt.Errorf("store: marshalling header for %s: %w", key.Kind, err)
	}
	hash := key.Hash()
	tmp, err := os.CreateTemp(s.dir, hash+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: creating temp entry: %w", err)
	}
	if _, err := tmp.Write(append(append(line, '\n'), raw...)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), s.path(hash)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: publishing %s: %w", s.path(hash), err)
	}
	s.writes.Add(1)
	return nil
}

// Stats returns a snapshot of the counters (zero for a no-op store).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Invalid: s.invalid.Load(),
		Writes:  s.writes.Load(),
	}
}
