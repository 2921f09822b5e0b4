package fisql

import (
	"context"
	"strings"
	"sync"
	"testing"

	"fisql/internal/engine"
	"fisql/internal/llm"
	"fisql/internal/obs"
)

var (
	apiOnce sync.Once
	apiSys  *System
	apiErr  error
)

func aepSystem(t *testing.T) *System {
	t.Helper()
	apiOnce.Do(func() { apiSys, apiErr = NewExperiencePlatformSystem() })
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	return apiSys
}

func TestPublicQuickstartFlow(t *testing.T) {
	sys := aepSystem(t)
	ctx := context.Background()
	sess := sys.Session("experience_platform", Options{Routing: true})

	ans, err := sess.Ask(ctx, "How many audiences were created in January?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.SQL, "2023") {
		t.Fatalf("year trap should fire: %q", ans.SQL)
	}
	ans, err = sess.Feedback(ctx, "we are in 2024", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.SQL, "2024-01-01") {
		t.Errorf("feedback not applied: %q", ans.SQL)
	}
	if ans.Result == nil || ans.ExecErr != nil {
		t.Errorf("result missing: %+v", ans)
	}
}

func TestDatabasesSorted(t *testing.T) {
	sys := aepSystem(t)
	dbs := sys.Databases()
	if len(dbs) != 1 || dbs[0] != "experience_platform" {
		t.Errorf("databases: %v", dbs)
	}
	sp, err := NewSpiderSystem()
	if err != nil {
		t.Fatal(err)
	}
	spDBs := sp.Databases()
	if len(spDBs) != 20 {
		t.Fatalf("spider databases: %d", len(spDBs))
	}
	for i := 1; i < len(spDBs); i++ {
		if spDBs[i] < spDBs[i-1] {
			t.Fatal("databases not sorted")
		}
	}
}

func TestMethodConstructors(t *testing.T) {
	sys := aepSystem(t)
	if sys.FISQL(Options{Routing: true}).Name() != "FISQL" {
		t.Error("FISQL constructor")
	}
	if sys.FISQL(Options{}).Name() != "FISQL (- Routing)" {
		t.Error("no-routing constructor")
	}
	if sys.QueryRewrite().Name() != "Query Rewrite" {
		t.Error("query-rewrite constructor")
	}
	if sys.Assistant() == nil {
		t.Error("assistant constructor")
	}
}

func TestCorpusShapes(t *testing.T) {
	sys := aepSystem(t)
	if len(sys.DS.Examples) != 200 {
		t.Errorf("AEP examples: %d", len(sys.DS.Examples))
	}
	if sys.Store.Len() == 0 {
		t.Error("empty demonstration store")
	}
}

// TestObserveEngineSubqueryCounters checks that Observe surfaces the engine's
// per-database subquery tallies: a closed subquery under an N-row scan is one
// execution and N-1 memo hits, whichever path ran the scan.
func TestObserveEngineSubqueryCounters(t *testing.T) {
	sys := aepSystem(t)
	r := obs.NewRegistry()
	sys.Observe(r)
	before := r.Snapshot().Counters
	db := sys.DS.DBs["experience_platform"]
	seg, _ := db.Table("hkg_dim_segment")
	const sql = "SELECT segment_id FROM hkg_dim_segment WHERE segment_id IN (SELECT segment_id FROM hkg_fact_activation)"
	if _, err := engine.NewExecutor(db).Query(sql); err != nil {
		t.Fatal(err)
	}
	after := r.Snapshot().Counters
	moved := func(name string) int64 { return after[name] - before[name] }
	if e, h, o := moved("fisql_engine_subquery_closed_execs_total"), moved("fisql_engine_subquery_memo_hits_total"),
		moved("fisql_engine_subquery_open_execs_total"); e != 1 || h != int64(len(seg.Rows))-1 || o != 0 {
		t.Errorf("closed execs %d, memo hits %d, open execs %d over %d rows", e, h, o, len(seg.Rows))
	}
}

// TestObserveEngineOrderCounters checks that Observe surfaces which sort
// ordered a statement's rows: one typed sort over the table's rows.
func TestObserveEngineOrderCounters(t *testing.T) {
	sys := aepSystem(t)
	r := obs.NewRegistry()
	sys.Observe(r)
	before := r.Snapshot().Counters
	db := sys.DS.DBs["experience_platform"]
	seg, _ := db.Table("hkg_dim_segment")
	if _, err := engine.NewExecutor(db).Query("SELECT segment_id FROM hkg_dim_segment ORDER BY segment_id DESC"); err != nil {
		t.Fatal(err)
	}
	after := r.Snapshot().Counters
	moved := func(name string) int64 { return after[name] - before[name] }
	if ty, g, n := moved("fisql_engine_order_typed_sorts_total"), moved("fisql_engine_order_generic_sorts_total"),
		moved("fisql_engine_order_rows_total"); ty != 1 || g != 0 || n != int64(len(seg.Rows)) {
		t.Errorf("typed sorts %d, generic sorts %d, rows %d over %d rows", ty, g, n, len(seg.Rows))
	}
}

// TestObserveBatcherCounters checks that Observe over a batching client
// registers the batcher's counters and flush-wait histogram, and that an
// ask reaches the model as a batch.
func TestObserveBatcherCounters(t *testing.T) {
	base := aepSystem(t)
	sys := NewSystem(base.DS, llm.NewBatcher(base.Client, llm.BatcherConfig{}))
	r := obs.NewRegistry()
	sys.Observe(r)
	if _, err := sys.Session("experience_platform", Options{}).Ask(context.Background(),
		"How many audiences were created in January?"); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if _, ok := snap.Counters["fisql_llm_batch_calls_total"]; !ok {
		t.Error("no fisql_llm_batch_calls_total counter")
	}
	if got := snap.Counters["fisql_llm_batches_total"]; got == 0 {
		t.Error("fisql_llm_batches_total = 0 after an ask; the batcher is not engaging")
	}
	if _, ok := snap.Histograms["fisql_llm_batch_wait_seconds"]; !ok {
		t.Error("no fisql_llm_batch_wait_seconds histogram")
	}
}
