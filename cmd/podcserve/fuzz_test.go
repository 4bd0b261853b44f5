package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzDecodeRequest feeds arbitrary bytes to the body decoding of every
// endpoint that takes a JSON body (check, correspond, transfer).  Every
// input must either decode, writing no response, or be rejected with 400
// or 413; decoding must never panic, and an accepted body must be exactly
// one JSON value within the size limit, so trailing data is never served.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"ring":6,"formula":"true"}`,
		`{"ring":6,"formula":"true"} {"x":1}`,
		`{"topology":"star","small":3,"large":5,"evidence":true}`,
		`{"large":4}` + " \n",
		`{"large":4}x`,
		`{"topolgy":"star"}`,
		`{"ring":"six"}`,
		`null`,
		`[]`,
		``,
		`{"structure":"` + string(bytes.Repeat([]byte("a"), 600)) + `"}`,
	} {
		f.Add([]byte(seed))
	}
	const maxBody = 512
	s := &server{cfg: serverConfig{MaxBody: maxBody}}
	bodies := map[string]func() any{
		"check":      func() any { return new(checkRequest) },
		"correspond": func() any { return new(correspondRequest) },
		"transfer":   func() any { return new(transferRequest) },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, body := range bodies {
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/"+name, bytes.NewReader(data))
			if s.decodeRequest(w, r, body()) {
				if w.Body.Len() > 0 {
					t.Fatalf("%s: accepted %q but wrote a response: %s", name, data, w.Body)
				}
				if len(data) > maxBody {
					t.Fatalf("%s: accepted %d bytes over the %d byte limit", name, len(data), maxBody)
				}
				if !json.Valid(data) {
					t.Fatalf("%s: accepted %q, which is not exactly one JSON value", name, data)
				}
				continue
			}
			if w.Code != http.StatusBadRequest && w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s: %q rejected with status %d (want 400 or 413): %s", name, data, w.Code, w.Body)
			}
		}
	})
}
