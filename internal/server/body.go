package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The request edge. A POST body is one small JSON object: a question, a
// feedback line, a corpus and a database. decodeBody reads the common
// spelling of it, the plain form, straight out of a pooled window, and hands
// everything else to json.Decoder behind http.MaxBytesReader, which defines
// every answer: FuzzDecodeBody holds the two to the same status, error body
// and decoded struct.

// bodyWindow is the most a plain body may take: W = min(bodyWindow, cap).
const bodyWindow = 4 << 10

// windowPool holds decodeBody's read windows of W+1 bytes; a full window
// always falls back.
var windowPool = sync.Pool{New: func() any { return new([bodyWindow + 1]byte) }}

// decodeBody decodes a POST body into v, an *askReq, *feedbackReq or
// *createReq, under the configured size cap. A body over the cap answers
// 413 (instead of letting a hostile client feed the decoder without bound),
// malformed JSON answers 400; either way the response has been written and
// the caller just returns.
//
// The body is read into the window, and after each Read the bytes so far
// are scanned before the Read's error is looked at, as json.Decoder does.
// If they start with a whole object in the plain form (plainScan) within
// the first W bytes, v is filled from it and whatever follows the object is
// never read, as Decode never reads it. Otherwise — a body that cannot be
// plain, a full window, a read error before the object ends — json.Decoder
// decodes the bytes already read followed by the rest of the body, or by
// the Read's error replayed, and answers as it alone would. No path hands v
// to anything that keeps it, so the caller's struct stays on its stack.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	p := plainScan{fields: plainFields(v)}
	if p.fields == nil {
		panic("decodeBody: not a request type")
	}
	win := windowPool.Get().(*[bodyWindow + 1]byte)
	defer windowPool.Put(win)
	buf := win[:min(bodyWindow, s.maxBodyBytes)+1]
	n := 0
	var err error
	for {
		var m int
		m, err = r.Body.Read(buf[n:])
		n += m
		st := p.scan(buf[:n])
		if st == plainDone && p.end < len(buf) {
			p.fill(buf, v)
			return true
		}
		if st != plainMore || err != nil || n == len(buf) {
			break
		}
	}
	var rest io.Reader = r.Body
	if err == io.EOF {
		rest = http.NoBody
	} else if err != nil {
		rest = errReader{err}
	}
	body := io.NopCloser(io.MultiReader(bytes.NewReader(buf[:n]), rest))
	switch v := v.(type) {
	case *askReq:
		return decodeFresh(s, w, body, v)
	case *feedbackReq:
		return decodeFresh(s, w, body, v)
	default:
		return decodeFresh(s, w, body, v.(*createReq))
	}
}

// decodeFresh runs decodeJSON on a fresh T and copies it into v, whether or
// not decoding succeeded, so it leaves a zero v (every handler's is) as
// decoding into v would. v itself never reaches the decoder, and the
// caller's request struct can live on its stack.
func decodeFresh[T any](s *Server, w http.ResponseWriter, body io.ReadCloser, v *T) bool {
	fresh := new(T)
	ok := s.decodeJSON(w, body, fresh)
	*v = *fresh
	return ok
}

// decodeJSON is decodeBody's general path. http.MaxBytesReader gets the
// innermost writer: net/http's own, whose hook marks the connection to close
// after a 413, so the rest of an oversized body is never read.
func (s *Server) decodeJSON(w http.ResponseWriter, body io.ReadCloser, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(innermost(w), body, s.maxBodyBytes)).Decode(v); err != nil {
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

// innermost unwraps w through every wrapper that exposes Unwrap, as
// flusherOf does.
func innermost(w http.ResponseWriter) http.ResponseWriter {
	for {
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return w
		}
		w = u.Unwrap()
	}
}

// errReader replays a body's read error to the fallback decoder.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// plainField is one json tag of a request type; an int field takes a
// non-negative integer, every other field a string.
type plainField struct {
	tag   string
	isInt bool
}

var (
	askFields      = []plainField{{tag: "question"}}
	feedbackFields = []plainField{{tag: "text"}, {tag: "highlight"}, {tag: "highlight_start", isInt: true}}
	createFields   = []plainField{{tag: "corpus"}, {tag: "db"}}
)

// plainFields returns the fields of the request type v points to, nil for
// any other type.
func plainFields(v any) []plainField {
	switch v.(type) {
	case *askReq:
		return askFields
	case *feedbackReq:
		return feedbackFields
	case *createReq:
		return createFields
	}
	return nil
}

// What plainScan.scan found.
const (
	plainMore = iota // the bytes so far are the start of a plain object
	plainDone        // the bytes start with a whole plain object, end bytes long
	plainNot         // the bytes do not start with a plain object
)

// The scanner's states between two bytes.
const (
	sObject   = iota // before '{'
	sFirst           // after '{': a key or '}'
	sKey             // after ',': a key
	sInKey           // inside a key
	sColon           // after a key
	sValue           // after ':'
	sInString        // inside a string value
	sInInt           // inside an integer value
	sNext            // after a value: ',' or '}'
)

// maxIntDigits is the longest integer the plain form takes: every number of
// 18 digits fits a 64-bit int, of 9 a 32-bit one.
const maxIntDigits = strconv.IntSize * 9 / 32

// plainScan recognises the plain form of a request body, byte by byte and
// across Reads. The plain form is one object, with JSON whitespace around
// its tokens, whose keys are spelled exactly as the target's json tags (a
// repeated key's last value wins) and whose values are strings with no
// backslash, no byte below 0x20 and valid UTF-8, or, for an int field, 0 or
// an integer of at most maxIntDigits digits with no leading zero. For such a
// body json.Decoder fills the same fields with the same values. Anything
// else — null, an escape, an unknown key or a key in another case, another
// number — is not plain.
type plainScan struct {
	fields []plainField
	vals   [3][2]int // per field, the span of its last value; absent when end is 0
	st     int
	i      int // the bytes before i are scanned
	start  int // where the current key or value begins
	field  int // the current member's field
	end    int // with plainDone, the object's length
}

func (p *plainScan) scan(b []byte) int {
	for ; p.i < len(b); p.i++ {
		c := b[p.i]
		switch p.st {
		case sObject, sFirst, sKey, sColon, sValue:
			if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				continue
			}
		}
		switch p.st {
		case sObject:
			if c != '{' {
				return plainNot
			}
			p.st = sFirst
		case sFirst, sKey:
			if c == '}' && p.st == sFirst {
				p.end = p.i + 1
				return plainDone
			}
			if c != '"' {
				return plainNot
			}
			p.st, p.start = sInKey, p.i+1
		case sInKey:
			// A key with an escape matches no tag; json.Decoder stops at a
			// control byte at once, and so must the scan.
			if c == '\\' || c < 0x20 {
				return plainNot
			}
			if c != '"' {
				continue
			}
			p.field = -1
			for k, f := range p.fields {
				if string(b[p.start:p.i]) == f.tag {
					p.field = k
				}
			}
			if p.field < 0 {
				return plainNot
			}
			p.st = sColon
		case sColon:
			if c != ':' {
				return plainNot
			}
			p.st = sValue
		case sValue:
			switch isInt := p.fields[p.field].isInt; {
			case !isInt && c == '"':
				p.st, p.start = sInString, p.i+1
			case isInt && c >= '0' && c <= '9':
				p.st, p.start = sInInt, p.i
			default:
				return plainNot
			}
		case sInString:
			if c == '\\' || c < 0x20 {
				return plainNot
			}
			if c == '"' {
				if !utf8.Valid(b[p.start:p.i]) {
					return plainNot
				}
				p.vals[p.field] = [2]int{p.start, p.i}
				p.st = sNext
			}
		case sInInt:
			if c >= '0' && c <= '9' {
				if b[p.start] == '0' || p.i-p.start == maxIntDigits {
					return plainNot
				}
				continue
			}
			p.vals[p.field] = [2]int{p.start, p.i}
			p.st = sNext
			fallthrough // c follows the value
		case sNext:
			switch c {
			case ' ', '\t', '\n', '\r':
			case ',':
				p.st = sKey
			case '}':
				p.end = p.i + 1
				return plainDone
			default:
				return plainNot
			}
		}
	}
	return plainMore
}

// fill stores the values of a plainDone scan of b into v, copying each
// string out of b, as json.Decoder would store them.
func (p *plainScan) fill(b []byte, v any) {
	str := func(k int, dst *string) {
		if s := p.vals[k]; s[1] > 0 {
			*dst = string(b[s[0]:s[1]])
		}
	}
	switch v := v.(type) {
	case *askReq:
		str(0, &v.Question)
	case *feedbackReq:
		str(0, &v.Text)
		str(1, &v.Highlight)
		if s := p.vals[2]; s[1] > 0 {
			n := 0
			for _, c := range b[s[0]:s[1]] {
				n = n*10 + int(c-'0')
			}
			if v.HighlightStart == nil {
				v.HighlightStart = new(int)
			}
			*v.HighlightStart = n
		}
	case *createReq:
		str(0, &v.Corpus)
		str(1, &v.DB)
	}
}
