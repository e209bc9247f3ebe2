package expharness

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

// TestCSVRoundTrip writes every experiment through the one CSV writer and
// reads it back: the header is the column list, there is one record per
// row, and a duration column is integer nanoseconds under a "_ns" name.
func TestCSVRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CSV export of all experiments skipped in -short")
	}
	cfg := Config{Scale: 0.02, Workers: 2, Quick: true}
	wantRows := quickRows()
	for _, e := range Experiments() {
		tab := e.Run(cfg)
		if len(tab.Rows) != wantRows[e.ID] {
			t.Errorf("%s: %d rows, want %d", e.ID, len(tab.Rows), wantRows[e.ID])
		}
		var buf bytes.Buffer
		if err := tab.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		recs, err := csv.NewReader(&buf).ReadAll() // rejects a ragged record
		if err != nil {
			t.Fatalf("%s: invalid CSV: %v", e.ID, err)
		}
		if len(recs) != len(tab.Rows)+1 {
			t.Fatalf("%s: %d records for %d rows", e.ID, len(recs), len(tab.Rows))
		}
		if len(recs[0]) != len(tab.Columns) {
			t.Fatalf("%s: header %v for %d columns", e.ID, recs[0], len(tab.Columns))
		}
		for i, c := range tab.Columns {
			name := recs[0][i]
			if c.Kind != Duration {
				if name != c.Name {
					t.Errorf("%s: header[%d] = %q, want %q", e.ID, i, name, c.Name)
				}
				continue
			}
			if name != c.Name+"_ns" {
				t.Errorf("%s: duration header[%d] = %q, want %q", e.ID, i, name, c.Name+"_ns")
			}
			for _, rec := range recs[1:] {
				if _, err := strconv.ParseInt(rec[i], 10, 64); err != nil {
					t.Errorf("%s: %s = %q, want integer nanoseconds", e.ID, name, rec[i])
				}
			}
		}
	}
}

func TestCSVStatsShape(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(Config{Scale: 0.02}).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	if lines[0] != "name,vertices,directed_edges,avg_degree,max_degree" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "ROLL-d40,") {
		t.Errorf("first data row = %q", lines[1])
	}
}
