package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzStoreEnvelope writes arbitrary bytes at a key's entry path and reads
// them back through Get.  Get must never panic; it may report a hit only for
// a well-formed envelope of the current engine version whose key echo
// addresses the file and whose payload digest matches; every other input
// must be counted under Stats.Invalid (or surface as an I/O error), never
// as a plain miss.
//
//	go test ./internal/store -run '^$' -fuzz FuzzStoreEnvelope -fuzztime 30s
func FuzzStoreEnvelope(f *testing.F) {
	key := Key{Kind: "sweep", Topology: "ring", Small: 3, Large: 7, Atoms: []string{"t"}, ReachableOnly: true}
	seedStore, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := seedStore.Put(key, &SweepRecord{Corresponds: true, States: 896, Transitions: 2688, MaxDegree: 3}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(seedStore.Dir(), key.Hash()+".json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte(strings.Replace(string(valid), EngineVersion, "bcg-engines-v0", 1)))
	f.Add([]byte(strings.Replace(string(valid), `"corresponds":true`, `"corresponds":false`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"topology":"ring"`, `"topology":"star"`, 1)))

	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	s.Logf = nil
	path := filepath.Join(s.Dir(), key.Hash()+".json")
	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		var got SweepRecord
		ok, err := s.Get(key, &got)
		after := s.Stats()
		if err != nil {
			if ok {
				t.Fatalf("Get returned a hit together with error %v", err)
			}
			return
		}
		if after.Misses != before.Misses {
			t.Fatalf("an existing entry was counted as a plain miss: %+v -> %+v", before, after)
		}
		want, wantOK := decodeEnvelope(blob, key)
		if ok != wantOK {
			t.Fatalf("Get hit = %v, envelope check says %v for %q", ok, wantOK, blob)
		}
		if !ok {
			if after.Invalid != before.Invalid+1 || after.Hits != before.Hits {
				t.Fatalf("rejected entry not counted as invalid: %+v -> %+v", before, after)
			}
			return
		}
		if after.Hits != before.Hits+1 || after.Invalid != before.Invalid {
			t.Fatalf("hit not counted as a hit: %+v -> %+v", before, after)
		}
		if got != want {
			t.Fatalf("Get decoded %+v, the envelope's payload is %+v", got, want)
		}
	})
}

// decodeEnvelope is the fuzzer's independent statement of a valid entry for
// key: the envelope parses, names the current engine version, echoes a key
// that hashes to key's address, and carries a payload that matches its
// digest and decodes as a SweepRecord.
func decodeEnvelope(blob []byte, key Key) (SweepRecord, bool) {
	var e struct {
		EngineVersion string          `json:"engine_version"`
		Key           Key             `json:"key"`
		PayloadSHA256 string          `json:"payload_sha256"`
		Payload       json.RawMessage `json:"payload"`
	}
	var rec SweepRecord
	if json.Unmarshal(blob, &e) != nil || e.EngineVersion != EngineVersion || e.Key.Hash() != key.Hash() {
		return rec, false
	}
	sum := sha256.Sum256(e.Payload)
	if hex.EncodeToString(sum[:]) != e.PayloadSHA256 || json.Unmarshal(e.Payload, &rec) != nil {
		return rec, false
	}
	return rec, true
}
