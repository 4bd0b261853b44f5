package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bisim"
	"repro/internal/ring"
)

func testKey() Key {
	return Key{Kind: "correspondence", Topology: "ring", Small: 3, Large: 7,
		Atoms: []string{"t"}, ReachableOnly: true}
}

// openTest returns a store in a fresh directory with log capture.
func openTest(t *testing.T) (*Store, *[]string) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	s.Logf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	return s, &logged
}

// realRecord decides an actual small ring correspondence, so round trips
// exercise the real relation encoding.
func realRecord(t *testing.T) *CorrespondenceRecord {
	t.Helper()
	small, err := ring.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	large, err := ring.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bisim.IndexedCompute(context.Background(), small.M, large.M,
		ring.CutoffIndexRelation(3, 4), bisim.Options{OneProps: []string{"t"}, ReachableOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := RecordIndexed(res)
	rec.States = large.M.NumStates()
	rec.Transitions = large.M.NumTransitions()
	return rec
}

func TestRoundTrip(t *testing.T) {
	s, logged := openTest(t)
	key := testKey()
	rec := realRecord(t)

	var miss CorrespondenceRecord
	if ok, err := s.Get(key, &miss); err != nil || ok {
		t.Fatalf("Get on empty store = (%v, %v), want miss", ok, err)
	}
	if err := s.Put(key, rec); err != nil {
		t.Fatal(err)
	}
	var got CorrespondenceRecord
	if ok, err := s.Get(key, &got); err != nil || !ok {
		t.Fatalf("Get after Put = (%v, %v), want hit", ok, err)
	}
	want, _ := json.Marshal(rec)
	have, _ := json.Marshal(&got)
	if string(want) != string(have) {
		t.Fatalf("round trip changed the record:\nput: %s\ngot: %s", want, have)
	}
	if !strings.Contains(string(want), `"csr":`) || strings.Contains(string(want), `"pairs":[{"s"`) {
		t.Fatalf("record relations are not stored as CSR rows: %.200s", want)
	}
	for i, p := range got.Pairs {
		if !slices.Equal(p.Relation.Pairs(), rec.Pairs[i].Relation.Pairs()) {
			t.Fatalf("pair (%d,%d): relation changed in the round trip", p.I, p.I2)
		}
	}
	restored, err := got.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Corresponds() {
		t.Fatal("restored result must correspond (ring 3~4 does)")
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Invalid != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 write", st)
	}
	if len(*logged) != 0 {
		t.Fatalf("clean round trip logged %q", *logged)
	}
}

func TestNilAndZeroStoreAreNoOps(t *testing.T) {
	var s *Store
	if ok, err := s.Get(testKey(), &CorrespondenceRecord{}); ok || err != nil {
		t.Fatalf("nil Get = (%v, %v)", ok, err)
	}
	if err := s.Put(testKey(), realRecord(t)); err != nil {
		t.Fatalf("nil Put: %v", err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
	if d := s.Dir(); d != "" {
		t.Fatalf("nil Dir = %q", d)
	}
	var zero Store
	if ok, err := zero.Get(testKey(), &CorrespondenceRecord{}); ok || err != nil {
		t.Fatalf("zero-value Get = (%v, %v)", ok, err)
	}
	if err := zero.Put(testKey(), 1); err != nil {
		t.Fatalf("zero-value Put: %v", err)
	}
}

func TestKeyHash(t *testing.T) {
	base := testKey()
	if base.Hash() != base.Hash() {
		t.Fatal("hash not deterministic")
	}
	// Entries already on disk are addressed by this digest: a change to
	// the key's encoding (a field added without omitempty, a renamed JSON
	// tag) orphans every one of them, so it must come with an
	// EngineVersion bump and a new pinned value.
	if got, want := base.Hash(), "c669c45bbf9936837a43982cc715c0d89d450b1a0355ca62b0008a5a7b68a0b9"; got != want {
		t.Fatalf("testKey().Hash() = %s, want %s", got, want)
	}
	reordered := base
	reordered.Atoms = []string{"t"}
	multi := base
	multi.Atoms = []string{"b", "a"}
	multiSwapped := base
	multiSwapped.Atoms = []string{"a", "b"}
	if multi.Hash() != multiSwapped.Hash() {
		t.Fatal("atom order must not affect the hash")
	}
	variants := []Key{
		{Kind: "certificate", Topology: base.Topology, Small: base.Small, Large: base.Large, Atoms: base.Atoms, ReachableOnly: true},
		{Kind: base.Kind, Topology: "star", Small: base.Small, Large: base.Large, Atoms: base.Atoms, ReachableOnly: true},
		{Kind: base.Kind, Topology: base.Topology, Small: 2, Large: base.Large, Atoms: base.Atoms, ReachableOnly: true},
		{Kind: base.Kind, Topology: base.Topology, Small: base.Small, Large: 8, Atoms: base.Atoms, ReachableOnly: true},
		{Kind: base.Kind, Topology: base.Topology, Small: base.Small, Large: base.Large, ReachableOnly: true},
		{Kind: base.Kind, Topology: base.Topology, Small: base.Small, Large: base.Large, Atoms: base.Atoms},
	}
	seen := map[string]int{base.Hash(): -1}
	for i, v := range variants {
		h := v.Hash()
		if j, dup := seen[h]; dup {
			t.Fatalf("variants %d and %d collide", i, j)
		}
		seen[h] = i
	}
}

// corrupt rewrites the stored entry file through fn and asserts the next
// Get rejects it as invalid (counted, logged, reported as a miss) without
// an error.
func corrupt(t *testing.T, name string, fn func(blob []byte) []byte) {
	t.Helper()
	s, logged := openTest(t)
	key := testKey()
	if err := s.Put(key, realRecord(t)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), key.Hash()+".json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	var got CorrespondenceRecord
	ok, err := s.Get(key, &got)
	if err != nil {
		t.Fatalf("%s: Get returned error %v, want silent miss", name, err)
	}
	if ok {
		t.Fatalf("%s: Get returned a hit from a damaged entry", name)
	}
	if st := s.Stats(); st.Invalid != 1 {
		t.Fatalf("%s: stats = %+v, want Invalid=1", name, st)
	}
	if len(*logged) != 1 || !strings.Contains((*logged)[0], "discarding") {
		t.Fatalf("%s: rejection not logged: %q", name, *logged)
	}
	// The caller recomputes and overwrites; the entry heals.
	if err := s.Put(key, realRecord(t)); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Get(key, &got); err != nil || !ok {
		t.Fatalf("%s: Get after rewrite = (%v, %v), want hit", name, ok, err)
	}
}

func TestDamagedEntriesAreMisses(t *testing.T) {
	t.Run("garbage", func(t *testing.T) {
		corrupt(t, "garbage", func([]byte) []byte { return []byte("not json at all {") })
	})
	t.Run("truncated", func(t *testing.T) {
		corrupt(t, "truncated", func(blob []byte) []byte { return blob[:len(blob)/2] })
	})
	t.Run("empty", func(t *testing.T) {
		corrupt(t, "empty", func([]byte) []byte { return nil })
	})
	t.Run("version-mismatch", func(t *testing.T) {
		corrupt(t, "version", func(blob []byte) []byte {
			line, payload, _ := bytes.Cut(blob, []byte{'\n'})
			var h map[string]json.RawMessage
			if err := json.Unmarshal(line, &h); err != nil {
				t.Fatal(err)
			}
			h["engine_version"] = json.RawMessage(`"bcg-engines-v0"`)
			out, err := json.Marshal(h)
			if err != nil {
				t.Fatal(err)
			}
			return append(append(out, '\n'), payload...)
		})
	})
	t.Run("csr-rows-with-matching-digest", func(t *testing.T) {
		corrupt(t, "csr rows", func(blob []byte) []byte {
			// Re-sign a payload whose first relation has a trailing byte
			// in its rows: only bisim.DecodeCSR can reject it.
			line, payload, _ := bytes.Cut(blob, []byte{'\n'})
			var rec map[string]json.RawMessage
			if err := json.Unmarshal(payload, &rec); err != nil {
				t.Fatal(err)
			}
			var pairs []map[string]json.RawMessage
			if err := json.Unmarshal(rec["pairs"], &pairs); err != nil {
				t.Fatal(err)
			}
			var rel struct {
				N   int    `json:"n"`
				N2  int    `json:"n2"`
				CSR []byte `json:"csr"`
			}
			if err := json.Unmarshal(pairs[0]["relation"], &rel); err != nil {
				t.Fatal(err)
			}
			rel.CSR = append(rel.CSR, 0)
			pairs[0]["relation"] = mustJSON(t, rel)
			rec["pairs"] = mustJSON(t, pairs)
			payload = mustJSON(t, rec)
			var h header
			if err := json.Unmarshal(line, &h); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(payload)
			h.PayloadSHA256 = hex.EncodeToString(sum[:])
			return append(append(mustJSON(t, h), '\n'), payload...)
		})
	})
	t.Run("no-header-line", func(t *testing.T) {
		corrupt(t, "no header line", func(blob []byte) []byte {
			return bytes.Replace(blob, []byte{'\n'}, []byte{' '}, 1)
		})
	})
	// An entry in the single-object layout of bcg-engines-v9 and before,
	// placed at the current key's path: neither the old version string nor
	// the current one makes it a hit.
	for _, version := range []string{"bcg-engines-v9", EngineVersion} {
		t.Run("all-json-layout/"+version, func(t *testing.T) {
			corrupt(t, "all-JSON layout", func(blob []byte) []byte {
				_, payload, _ := bytes.Cut(blob, []byte{'\n'})
				return allJSONEntry(t, version, testKey(), payload)
			})
		})
	}
	t.Run("payload-tampered", func(t *testing.T) {
		corrupt(t, "tampered", func(blob []byte) []byte {
			// Flip the stored verdict without updating the digest.
			return []byte(strings.Replace(string(blob), `"corresponds":true`, `"corresponds":false`, 1))
		})
	})
	t.Run("wrong-key-echo", func(t *testing.T) {
		corrupt(t, "echo", func(blob []byte) []byte {
			return []byte(strings.Replace(string(blob), `"topology":"ring"`, `"topology":"star"`, 1))
		})
	})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestPayloadTamperActuallyFlipped guards the tampered-entry fixture: the
// string surgery above must really alter the payload bytes, or the digest
// check would be vacuous.
func TestPayloadTamperActuallyFlipped(t *testing.T) {
	s, _ := openTest(t)
	key := testKey()
	if err := s.Put(key, realRecord(t)); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(s.Dir(), key.Hash()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"corresponds":true`) {
		t.Fatalf("fixture drift: stored entry does not contain the escaped verdict; update the tamper test")
	}
}

func TestConcurrentSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	rec := realRecord(t)
	key := testKey()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine owns its own Store handle on the shared
			// directory, as concurrent sessions would.
			s, err := Open(dir)
			if err != nil {
				errs <- err
				return
			}
			s.Logf = nil
			for i := 0; i < 25; i++ {
				if g%2 == 0 {
					if err := s.Put(key, rec); err != nil {
						errs <- fmt.Errorf("put: %w", err)
						return
					}
				}
				var got CorrespondenceRecord
				ok, err := s.Get(key, &got)
				if err != nil {
					errs <- fmt.Errorf("get: %w", err)
					return
				}
				// A reader may race the very first write and miss, but a
				// torn or half-written entry would surface as Invalid.
				if s.Stats().Invalid != 0 {
					errs <- fmt.Errorf("observed an invalid entry during concurrent writes")
					return
				}
				if ok && got.Corresponds != rec.Corresponds {
					errs <- fmt.Errorf("read back a wrong verdict")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// No temp files may survive.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestRestoreRejectsInconsistentRecords(t *testing.T) {
	rec := realRecord(t)
	missing := *rec
	missing.Pairs = append([]PairRecord(nil), rec.Pairs...)
	missing.Pairs[0].Relation = nil
	if _, err := missing.Restore(); err == nil {
		t.Fatal("record with a missing relation must not restore")
	}
	dup := *rec
	dup.Pairs = append(append([]PairRecord(nil), rec.Pairs...), rec.Pairs[0])
	if _, err := dup.Restore(); err == nil {
		t.Fatal("record with duplicate pairs must not restore")
	}
	lying := *rec
	lying.Corresponds = !rec.Corresponds
	if _, err := lying.Restore(); err == nil {
		t.Fatal("record whose verdict disagrees with its pairs must not restore")
	}
	var nilRec *CorrespondenceRecord
	if _, err := nilRec.Restore(); err == nil {
		t.Fatal("nil record must not restore")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") must fail")
	}
}
