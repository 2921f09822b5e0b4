package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// decodeBodyRef is the reference decodeBody must agree with: the request
// body behind http.MaxBytesReader, one json.Decoder.Decode, and the 413 and
// 400 answers for its errors.
func decodeBodyRef(w http.ResponseWriter, r *http.Request, v any, maxBytes int64) bool {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
		} else {
			httpError(w, http.StatusBadRequest, "bad json: "+err.Error())
		}
		return false
	}
	return true
}

var errHeldOpen = errors.New("body held open")

// fuzzBody delivers data, then end (io.EOF, io.ErrUnexpectedEOF or
// errHeldOpen): in one Read or one byte per Read, and with eager the last
// bytes arrive together with end, as net/http's body reader delivers a body
// of known length. ended records that a Read returned end.
type fuzzBody struct {
	data    []byte
	end     error
	oneByte bool
	eager   bool
	ended   bool
}

func (b *fuzzBody) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		b.ended = true
		return 0, b.end
	}
	if b.oneByte && len(p) > 1 {
		p = p[:1]
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	if len(b.data) == 0 && b.eager {
		b.ended = true
		return n, b.end
	}
	return n, nil
}

func (b *fuzzBody) Close() error { return nil }

// fuzzDeliveries are the ways FuzzDecodeBody hands a body to the decoder.
var fuzzDeliveries = []fuzzBody{
	{end: io.EOF},                             // one Read, then EOF
	{end: io.EOF, oneByte: true},              // one byte per Read
	{end: io.ErrUnexpectedEOF},                // truncated
	{end: errHeldOpen},                        // held open after the bytes
	{end: io.EOF, eager: true},                // the bytes arrive with EOF
	{end: errHeldOpen, oneByte: true},         // one byte per Read, held open
	{end: io.ErrUnexpectedEOF, eager: true},   // truncated, error with the bytes
	{end: io.ErrUnexpectedEOF, oneByte: true}, // one byte per Read, truncated
}

// fuzzCap maps a selector to a body cap: 1–200, then the sizes around the
// 4 KiB read window, then the default.
func fuzzCap(sel uint8) int64 {
	if sel < 200 {
		return int64(sel) + 1
	}
	return []int64{4095, 4096, 4097, DefaultMaxBodyBytes}[(sel-200)%4]
}

func fuzzTarget(sel uint8) any {
	switch sel % 3 {
	case 0:
		return new(askReq)
	case 1:
		return new(feedbackReq)
	}
	return new(createReq)
}

// FuzzDecodeBody holds decodeBody to the reference decoder on arbitrary
// bodies, targets, caps and deliveries: the same ok bit, status, headers,
// error body and decoded struct. A body held open must be read past its
// bytes only when the reference reads past them. The body is body with pad
// copies of fill inserted at at, so a short input reaches the 4 KiB window.
func FuzzDecodeBody(f *testing.F) {
	seeds := []string{
		``, ` `, " \t\r\n", `null`, `{}`, ` { } `, `{`, `{"question"`, `[]`, `"q"`, `17`,
		`{"question":"q"}`, ` {"question" : "q" } `, `{"question":"q"} trailing`,
		`{"question":"q"}{"question":"r"}`, `{"question":"q"`, `{"question":"q",}`,
		`{"Question":"q"}`, `{"QUESTION":"q"}`, `{"question":"a","question":"b"}`,
		`{"question":"q","x":1}`, `{"x":1,"question":"q"}`, `{"question":null}`,
		`{"question":1}`, `{"question":true}`, `{"question":["q"]}`,
		`{"question":"\u0041\u00e9"}`, `{"question":"say \"hi\""}`, `{"question":"a\/b"}`,
		"{\"question\":\"\xff\"}", "{\"question\":\"caf\xc3\xa9 \xe2\x80\xa8\"}",
		"{\"question\":\"a\tb\"}", "{\"question\":\"a\x00b\"}", "{\"question\":\"\x7f\"}", "{\"\x01",
		`{"corpus":"aep"}`, `{"corpus":"aep","db":"x"}`, `{"db":"","corpus":""}`,
		`{"text":"we are in 2024"}`, `{"text":"t","highlight":"2023"}`,
		`{"text":"t","highlight":"h","highlight_start":0}`,
		`{"text":"t","highlight":"h","highlight_start":17}`,
		`{"text":"t","highlight":"h","highlight_start":01}`,
		`{"text":"t","highlight":"h","highlight_start":-1}`,
		`{"text":"t","highlight":"h","highlight_start":1e3}`,
		`{"text":"t","highlight":"h","highlight_start":1.5}`,
		`{"text":"t","highlight":"h","highlight_start":123456789012345678}`,
		`{"text":"t","highlight":"h","highlight_start":1234567890123456789}`,
		`{"text":"t","highlight":"h","highlight_start":99999999999999999999}`,
		`{"text":"t","highlight_start":1,"highlight_start":2}`,
		`{"text":"t","highlight_start":"1"}`, `{"text":"t","highlight_start":null}`,
		`{"highlight_start":3 }`, `{"highlight_start":3`,
	}
	for _, s := range seeds {
		for target := uint8(0); target < 3; target++ {
			for d := range fuzzDeliveries {
				f.Add([]byte(s), uint16(0), uint16(0), byte('a'), target, uint8(255), uint8(d))
			}
			f.Add([]byte(s), uint16(0), uint16(0), byte('a'), target, uint8(9), uint8(0))
		}
	}
	// Bodies of exactly W and W+1 bytes, W the read window: min(4 KiB, cap).
	ask := []byte(`{"question":"q"}`) // 16 bytes
	for d := range fuzzDeliveries {
		for _, c := range []uint8{14, 15, 16, 200, 201, 202, 203} {
			for _, pad := range []uint16{0, 1, 4096 - 16, 4097 - 16, 4098 - 16} {
				f.Add(ask, uint16(13), pad, byte('a'), uint8(0), c, uint8(d))
				f.Add(ask, uint16(16), pad, byte(' '), uint8(0), c, uint8(d))
			}
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, at, pad uint16, fill byte, target, capSel, delivery uint8) {
		if len(body) > 160 || pad > 4200 {
			return
		}
		i := min(int(at), len(body))
		full := append(append(append([]byte{}, body[:i]...), bytes.Repeat([]byte{fill}, int(pad))...), body[i:]...)
		maxBytes := fuzzCap(capSel)
		d := fuzzDeliveries[int(delivery)%len(fuzzDeliveries)]

		run := func(decode func(http.ResponseWriter, *http.Request, any) bool) (bool, *httptest.ResponseRecorder, any, bool) {
			b := d
			b.data = full
			r := httptest.NewRequest(http.MethodPost, "/", nil)
			r.Body = &b
			w := httptest.NewRecorder()
			v := fuzzTarget(target)
			ok := decode(w, r, v)
			return ok, w, v, b.ended
		}
		s := &Server{maxBodyBytes: maxBytes}
		gotOK, gotW, gotV, gotEnded := run(s.decodeBody)
		wantOK, wantW, wantV, wantEnded := run(func(w http.ResponseWriter, r *http.Request, v any) bool {
			return decodeBodyRef(w, r, v, maxBytes)
		})
		if gotOK != wantOK || gotW.Code != wantW.Code || gotW.Body.String() != wantW.Body.String() ||
			!reflect.DeepEqual(gotW.Header(), wantW.Header()) || !reflect.DeepEqual(gotV, wantV) {
			t.Fatalf("body %q, cap %d, delivery %+v, target %T:\n got  ok=%v %d %v %q %+v\n want ok=%v %d %v %q %+v",
				full, maxBytes, d, gotV, gotOK, gotW.Code, gotW.Header(), gotW.Body, gotV,
				wantOK, wantW.Code, wantW.Header(), wantW.Body, wantV)
		}
		if d.end == errHeldOpen && gotEnded != wantEnded {
			t.Fatalf("body %q, cap %d, delivery %+v: read past the bytes %v, reference %v",
				full, maxBytes, d, gotEnded, wantEnded)
		}
	})
}

// TestCreateDeleteBodies pins the create and delete replies byte for byte to
// json.Encoder's encoding of the maps they were written from, for locally
// issued and preset ids, ids that need escaping included.
func TestCreateDeleteBodies(t *testing.T) {
	fac := factory(t)
	srv := New(map[string]SessionFactory{"aep": fac}, WithPresetSessionIDs())
	encode := func(v any) string {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	do := func(method, path, presetID, body string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(method, path, strings.NewReader(body))
		if presetID != "" {
			r.Header.Set("X-Fisql-Session-Id", presetID)
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, w.Code, w.Body)
		}
		return w
	}
	dbs := fac.Databases()
	for i, preset := range []string{"", "s900", `s<9>&"x"`, "s\u2028é\\"} {
		db := dbs[i%len(dbs)]
		w := do(http.MethodPost, "/v1/sessions", preset, encode(map[string]string{"corpus": "aep", "db": db}))
		var created struct {
			ID string `json:"session_id"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil || created.ID == "" {
			t.Fatalf("create %q: %q carries no session_id", preset, w.Body)
		}
		if preset != "" && created.ID != preset {
			t.Fatalf("create %q: session_id %q", preset, created.ID)
		}
		if want := encode(map[string]any{"session_id": created.ID, "db": db}); w.Body.String() != want {
			t.Errorf("create %q:\n got  %q\n want %q", preset, w.Body, want)
		}
		w = do(http.MethodDelete, "/v1/sessions/"+url.PathEscape(created.ID), "", "")
		if want := encode(map[string]any{"session_id": created.ID, "deleted": true}); w.Body.String() != want {
			t.Errorf("delete %q:\n got  %q\n want %q", created.ID, w.Body, want)
		}
	}
}

// TestOversizedBodyClosesConnection: a 413 tells the client the connection
// closes (net/http's hook on http.MaxBytesReader), so the unread rest of the
// body is never taken for the next request.
func TestOversizedBodyClosesConnection(t *testing.T) {
	ts := httptest.NewServer(New(map[string]SessionFactory{"aep": factory(t)}, WithMaxBodyBytes(256)))
	defer ts.Close()
	resp, created := postJSON(t, ts.URL+"/v1/sessions", map[string]string{"corpus": "aep"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	id, _ := created["session_id"].(string)
	resp, out := postJSON(t, ts.URL+"/v1/sessions/"+id+"/ask", map[string]string{"question": strings.Repeat("why? ", 200)})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ask: status %d, body %v", resp.StatusCode, out)
	}
	if !resp.Close {
		t.Errorf("oversized ask: the 413 keeps the connection open (Connection: %q)", resp.Header.Get("Connection"))
	}
}
