package iostat

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestTraceNilSafe: every recording method must tolerate a nil trace —
// the disabled read path threads nil everywhere.
func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	if rt := tr.AddRun(0, 0); rt != nil {
		t.Fatal("nil Trace.AddRun must return nil")
	}
	tr.SetValue([]byte("v"))
	if tr.String() != "" {
		t.Fatal("nil Trace.String must be empty")
	}
}

// TestTraceRender: a representative trace renders every decision kind and
// survives a JSON round trip (the TRACE opcode's wire shape).
func TestTraceRender(t *testing.T) {
	tr := NewTrace([]byte("user42"))
	rt := tr.AddRun(0, 0)
	rt.Decision = DecisionFenceSkip
	rt = tr.AddRun(0, 1)
	rt.File, rt.Decision, rt.Filter = 7, DecisionFilterNegative, FilterNegativeVerdict
	rt = tr.AddRun(1, 0)
	rt.File, rt.Decision, rt.Filter = 9, DecisionProbed, FilterMaybe
	rt.Blocks, rt.CacheHits, rt.FalsePositive = 1, 1, true
	rt = tr.AddRun(2, 0)
	rt.File, rt.Decision, rt.Filter = 12, DecisionProbed, FilterMaybe
	rt.Blocks, rt.CacheMisses, rt.CacheAdmitted, rt.BlockReads, rt.Found = 1, 1, 1, 1, true
	tr.Found = true
	tr.Source = "L2/run0/file12"
	tr.SetValue([]byte("hello"))
	tr.ElapsedUs = 42.5

	s := tr.String()
	for _, want := range []string{
		"FOUND at L2/run0/file12", "fence skip", "filter negative",
		"false positive", "FOUND", `"hello"`, "memtable: miss",
		"1 cache hit, 0 miss of which 0 admitted", "1 miss of which 1 admitted, 1 read",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}

	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Found || len(back.Runs) != 4 || back.Runs[3].File != 12 {
		t.Fatalf("round trip mangled: %+v", back)
	}
	if back.String() != s {
		t.Fatal("String() differs after JSON round trip")
	}
}

// TestTraceValueTruncation: long values are capped in the rendered trace.
func TestTraceValueTruncation(t *testing.T) {
	tr := NewTrace([]byte("k"))
	tr.SetValue(make([]byte, 1000))
	if !strings.Contains(tr.Value, "(1000 bytes)") {
		t.Fatalf("Value = %q, want truncation marker", tr.Value)
	}
	if len(tr.Value) > 400 {
		t.Fatalf("truncated value still %d chars", len(tr.Value))
	}
}
