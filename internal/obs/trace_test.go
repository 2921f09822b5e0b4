package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestTraceRecordsStages(t *testing.T) {
	m := NewMetrics()
	tr := m.StartTrace()
	sp := tr.Start(StageLLM)
	time.Sleep(time.Millisecond)
	sp.End()
	// A stage entered twice accumulates into one per-request observation.
	sp = tr.Start(StageLLM)
	sp.End()
	if tr.Dur(StageLLM) <= 0 {
		t.Fatal("no accumulated llm duration")
	}
	if tr.Dur(StageExecute) != 0 {
		t.Error("untouched stage has duration")
	}
	tr.Finish()
	if got := m.StageHistogram(StageLLM).Count(); got != 1 {
		t.Errorf("llm histogram count = %d, want 1 (accumulated per request)", got)
	}
	if got := m.StageHistogram(StageExecute).Count(); got != 0 {
		t.Errorf("execute histogram count = %d, want 0", got)
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var m *Metrics
	tr := m.StartTrace()
	if tr != nil {
		t.Fatal("nil Metrics returned a trace")
	}
	sp := tr.Start(StageLLM) // must not panic or read the clock
	sp.End()
	if tr.Dur(StageLLM) != 0 {
		t.Error("nil trace has duration")
	}
	tr.Finish()
	if m.StageHistogram(StageLLM) != nil {
		t.Error("nil Metrics returned a histogram")
	}
	if m.StageStats() != nil {
		t.Error("nil Metrics returned stage stats")
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := TraceFrom(ctx); got != nil {
		t.Fatal("empty context yielded a trace")
	}
	// Attaching a nil trace must not allocate a new context.
	if got := WithTrace(ctx, nil); got != ctx {
		t.Error("WithTrace(nil) wrapped the context")
	}
	m := NewMetrics()
	tr := m.StartTrace()
	ctx2 := WithTrace(ctx, tr)
	if got := TraceFrom(ctx2); got != tr {
		t.Errorf("TraceFrom = %p, want %p", got, tr)
	}
	tr.Finish()
}

func TestTracePoolReuseResets(t *testing.T) {
	m := NewMetrics()
	tr := m.StartTrace()
	sp := tr.Start(StagePlan)
	time.Sleep(100 * time.Microsecond)
	sp.End()
	tr.Finish()
	// The recycled trace must come back clean.
	tr2 := m.StartTrace()
	for s := Stage(0); s < NumStages; s++ {
		if d := tr2.Dur(s); d != 0 {
			t.Errorf("recycled trace stage %s has leftover duration %v", s, d)
		}
	}
	tr2.Finish()
}

func TestStageNamesAndMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < NumStages; s++ {
		name := s.String()
		if name == "" || strings.Contains(name, "(") {
			t.Errorf("stage %d has no name", s)
		}
		if seen[name] {
			t.Errorf("duplicate stage name %q", name)
		}
		seen[name] = true
		if got := s.MetricName(); got != "fisql_stage_"+name+"_seconds" {
			t.Errorf("metric name = %q", got)
		}
	}
	if got := Stage(99).String(); got != "stage(99)" {
		t.Errorf("out-of-range stage name = %q", got)
	}
}

func TestStageStatsAndSummary(t *testing.T) {
	m := NewMetrics()
	tr := m.StartTrace()
	sp := tr.Start(StageExecute)
	time.Sleep(200 * time.Microsecond)
	sp.End()
	tr.Finish()
	stats := m.StageStats()
	if len(stats) != 1 || stats[0].Stage != "execute" || stats[0].Count != 1 {
		t.Fatalf("stats = %+v, want one execute entry", stats)
	}
	if stats[0].P50 <= 0 || stats[0].Mean <= 0 {
		t.Errorf("zero quantiles: %+v", stats[0])
	}
	var sb strings.Builder
	m.WriteStageSummary(&sb)
	if !strings.Contains(sb.String(), "execute") {
		t.Errorf("summary missing stage row:\n%s", sb.String())
	}
}

// StageHistogram returns the histogram behind one stage (nil on nil m).
func (m *Metrics) StageHistogram(s Stage) *Histogram {
	if m == nil || s < 0 || s >= NumStages {
		return nil
	}
	return m.stages[s]
}
