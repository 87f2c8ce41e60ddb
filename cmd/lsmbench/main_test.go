package main

import (
	"bytes"
	"strings"
	"testing"

	"lsmkv/internal/bench"
)

func TestTableFormatting(t *testing.T) {
	tab := bench.NewTable("name", "value")
	tab.Caption = "caption"
	tab.Note = "note"
	tab.Row("short", 1.5)
	tab.Row("a-much-longer-name", 42)
	var buf bytes.Buffer
	printTable(&buf, tab)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 6 || lines[0] != "caption" || lines[5] != "note" {
		t.Fatalf("expected caption, 4 table lines and note, got:\n%s", buf.String())
	}
	if !strings.Contains(lines[3], "1.500") {
		t.Errorf("float not formatted: %q", lines[3])
	}
	// Columns aligned: the header's second column starts where rows' do.
	if strings.Index(lines[1], "value") != strings.Index(lines[4], "42") {
		t.Errorf("columns misaligned:\n%s", buf.String())
	}
}
