package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"fisql/internal/assistant"
	"fisql/internal/dataset"
	"fisql/internal/dataset/aep"
	"fisql/internal/dataset/spider"
	"fisql/internal/engine"
	"fisql/internal/persist"
	"fisql/internal/sqlast"
)

// legacyAnswerJSON is the seven-field answer body the server has always
// sent, encoded in one json.Encoder.Encode call. It is the reference the
// rendered body must match byte for byte.
type legacyAnswerJSON struct {
	SQL           string     `json:"sql"`
	Reformulation string     `json:"reformulation"`
	Explanation   []string   `json:"explanation"`
	Spans         []spanJSON `json:"spans,omitempty"`
	Columns       []string   `json:"columns,omitempty"`
	Rows          [][]string `json:"rows,omitempty"`
	Error         string     `json:"error,omitempty"`
}

// wireSpans and wireCells convert an answer's spans and cells independently
// of the server's own helpers.
func wireSpans(spans []sqlast.Span) []spanJSON {
	var out []spanJSON
	for _, sp := range spans {
		out = append(out, spanJSON{Clause: sp.Clause.String(), Start: sp.Start, End: sp.End})
	}
	return out
}

func wireCells(res *engine.Result) [][]string {
	var out [][]string
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, cells)
	}
	return out
}

// wantWire builds the reference body and stage payloads of ans.
func wantWire(t *testing.T, ans *assistant.Answer) (body, sql, exp, res []byte) {
	t.Helper()
	legacy := legacyAnswerJSON{SQL: ans.SQL, Reformulation: ans.Reformulation,
		Explanation: ans.Explanation, Spans: wireSpans(ans.Spans)}
	resEv := resultEvent{}
	if ans.ExecErr != nil {
		legacy.Error = ans.ExecErr.Error()
		resEv.Error = legacy.Error
	} else if ans.Result != nil {
		legacy.Columns, legacy.Rows = ans.Result.Columns, wireCells(ans.Result)
		resEv.Columns, resEv.Rows = legacy.Columns, legacy.Rows
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	var err error
	if sql, err = json.Marshal(sqlEvent{SQL: ans.SQL}); err != nil {
		t.Fatal(err)
	}
	if exp, err = json.Marshal(explanationEvent{Reformulation: ans.Reformulation,
		Explanation: ans.Explanation, Spans: wireSpans(ans.Spans)}); err != nil {
		t.Fatal(err)
	}
	if res, err = json.Marshal(resEv); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sql, exp, res
}

// corpusAnswers answers the gold SQL and every trap variant of each example
// of ds, through an assistant with the given plan cache (nil for none).
func corpusAnswers(t *testing.T, ds *dataset.Dataset, cache *engine.Cache) map[string]*assistant.Answer {
	t.Helper()
	asst := &assistant.Assistant{DS: ds, Cache: cache}
	out := make(map[string]*assistant.Answer)
	for _, e := range ds.Examples {
		if _, ok := e.SQLFor(0); !ok {
			t.Fatalf("%s/%s has no gold SQL", ds.Name, e.ID)
		}
		for mask := 0; mask <= int(e.FullMask()); mask++ {
			if sql, ok := e.SQLFor(uint8(mask)); ok {
				name := fmt.Sprintf("%s/%s/%d", ds.Name, e.ID, mask)
				out[name] = asst.Answer(context.Background(), e.DB, sql)
			}
		}
	}
	return out
}

// TestCachelessAnswersMatchCached checks that an assistant without a plan
// cache answers every gold and variant SQL of both corpora — plus SQL that
// fails to parse, plan or run — exactly as a cached one does, error text
// included.
func TestCachelessAnswersMatchCached(t *testing.T) {
	for _, build := range []func() (*dataset.Dataset, error){aep.Build, spider.Build} {
		ds, err := build()
		if err != nil {
			t.Fatal(err)
		}
		cached := corpusAnswers(t, ds, engine.NewCache(0))
		cacheless := corpusAnswers(t, ds, nil)
		db := ds.Examples[0].DB
		for i, sql := range []string{
			"SELEC 1",                  // parse error
			"SELECT nope FROM nowhere", // unknown table
			"SELECT nope FROM " + db,   // the database's name is no table
			"SELECT 1 WHERE 1 = (SELECT 1 UNION SELECT 2)", // scalar subquery with two rows
		} {
			name := fmt.Sprintf("%s/bad/%d", ds.Name, i)
			cached[name] = (&assistant.Assistant{DS: ds, Cache: engine.NewCache(0)}).Answer(context.Background(), db, sql)
			cacheless[name] = (&assistant.Assistant{DS: ds}).Answer(context.Background(), db, sql)
			if cached[name].ExecErr == nil {
				t.Fatalf("%s: %q answered without an error", name, sql)
			}
		}
		if len(cacheless) != len(cached) {
			t.Fatalf("%s: %d cache-less answers, %d cached", ds.Name, len(cacheless), len(cached))
		}
		for name, want := range cached {
			got := cacheless[name]
			if (got.ExecErr == nil) != (want.ExecErr == nil) ||
				got.ExecErr != nil && got.ExecErr.Error() != want.ExecErr.Error() {
				t.Fatalf("%s: cache-less error %v, cached %v", name, got.ExecErr, want.ExecErr)
			}
			if !reflect.DeepEqual(got.Result, want.Result) {
				t.Fatalf("%s: cache-less result differs from cached", name)
			}
			gotBody, _, gotExp, _ := wantWire(t, got)
			wantBody, _, wantExp, _ := wantWire(t, want)
			if !bytes.Equal(gotBody, wantBody) || !bytes.Equal(gotExp, wantExp) {
				t.Fatalf("%s: cache-less answer\n %s\ncached\n %s", name, gotBody, wantBody)
			}
		}
	}
}

// TestAnswerWireFormat pins the answer's wire forms: the body is the
// seven-field answer object as json.Encoder writes it, each stage payload is
// json.Marshal of its event struct, and done is the body without its
// newline. It covers every example and variant SQL of both corpora plus
// hand-built edge cases, and asks for each answer twice so the cached form
// is checked as well as the first render.
func TestAnswerWireFormat(t *testing.T) {
	answers := make(map[string]*assistant.Answer)
	for _, build := range []func() (*dataset.Dataset, error){aep.Build, spider.Build} {
		ds, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for name, ans := range corpusAnswers(t, ds, engine.NewCache(0)) {
			answers[name] = ans
		}
	}
	odd := "<b>a & b</b> \u2028 line \u2029 para \xff\xfe bad"
	cells := &engine.Result{Columns: []string{"html", "odd", "n"}, Rows: [][]engine.Value{
		{engine.Text("<script>&amp;</script>"), engine.Text(odd), engine.Int(1)},
		{engine.Text(""), engine.Null(), engine.Float(2.5)},
	}}
	spans := []sqlast.Span{{Clause: sqlast.ClauseSelect, Start: 0, End: 8}}
	for name, ans := range map[string]*assistant.Answer{
		"exec-error": {SQL: "SELECT x FROM t", Reformulation: "Finds the x.",
			Explanation: []string{"First."}, Spans: spans, ExecErr: errors.New("no such column: x " + odd)},
		"exec-error-with-result": {SQL: "SELECT 1", ExecErr: errors.New("boom"), Result: cells},
		"exec-error-empty-text":  {SQL: "SELECT 1", ExecErr: errors.New("")},
		"nil-result":             {SQL: "SELECT 1", Reformulation: "Finds 1.", Explanation: []string{"a"}},
		"empty-result":           {SQL: "SELECT 1", Explanation: []string{"a"}, Result: &engine.Result{}},
		"columns-no-rows":        {SQL: "SELECT a", Result: &engine.Result{Columns: []string{"a", "b"}}},
		"nil-explanation":        {SQL: "SELECT 1", Result: cells},
		"empty-explanation":      {SQL: "SELECT 1", Explanation: []string{}, Result: cells},
		"no-spans":               {SQL: "SELECT 1", Explanation: []string{"a"}, Spans: nil, Result: cells},
		"empty-spans":            {SQL: "SELECT 1", Explanation: []string{"a"}, Spans: []sqlast.Span{}, Result: cells},
		"odd-text": {SQL: "SELECT '" + odd + "'", Reformulation: odd,
			Explanation: []string{odd, "<>&"}, Spans: spans, Result: cells},
	} {
		answers["hand/"+name] = ans
	}

	names := make([]string, 0, len(answers))
	for name := range answers {
		names = append(names, name)
	}
	sort.Strings(names)
	srv := New(nil)
	rec := persist.Record{Type: persist.TAsk, Session: "wire", Text: "q"}
	for _, name := range names {
		ans := answers[name]
		wantBody, wantSQL, wantExp, wantRes := wantWire(t, ans)
		for pass := 0; pass < 2; pass++ {
			body, events, _ := srv.publishTurn(nil, rec, ans)
			if !bytes.Equal(body, wantBody) {
				t.Fatalf("%s pass %d: body\n got %q\nwant %q", name, pass, body, wantBody)
			}
			if len(events) != 4 {
				t.Fatalf("%s pass %d: %d events, want 4", name, pass, len(events))
			}
			for i, want := range []struct {
				typ  string
				data []byte
			}{{"sql", wantSQL}, {"explanation", wantExp}, {"result", wantRes},
				{"done", wantBody[:len(wantBody)-1]}} {
				if events[i].Type != want.typ || !bytes.Equal(events[i].Data, want.data) {
					t.Fatalf("%s pass %d: event %d is %s %q, want %s %q", name, pass, i,
						events[i].Type, events[i].Data, want.typ, want.data)
				}
			}
		}
	}
}
