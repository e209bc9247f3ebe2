package gsindex

import (
	"bytes"
	"testing"

	"ppscan/internal/algotest"
	"ppscan/internal/gen"
	"ppscan/internal/result"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := algotest.RandomGraph(201)
	ix := Build(g, BuildOptions{Workers: 2})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("loaded index invalid: %v", err)
	}
	// Queries from the loaded index match the original.
	for _, eps := range []string{"0.3", "0.6"} {
		a, err := ix.Query(eps, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Query(eps, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := result.Equal(a, b); err != nil {
			t.Fatalf("eps=%s: %v", eps, err)
		}
	}
}

func TestLoadRejectsWrongGraph(t *testing.T) {
	g := gen.Clique(10)
	ix := Build(g, BuildOptions{})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := gen.Clique(11)
	if _, err := Load(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Errorf("index accepted for mismatched graph")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	g := gen.Clique(5)
	cases := [][]byte{
		{},
		{1, 2, 3},
		{0x31, 0x49, 0x53, 0x47, 0, 0, 0, 0}, // magic only, truncated
	}
	for _, data := range cases {
		if _, err := Load(bytes.NewReader(data), g); err == nil {
			t.Errorf("garbage %v accepted", data)
		}
	}
	// Corrupted payload: out-of-range count.
	ix := Build(g, BuildOptions{})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Counts start after the 20-byte header; set one to a huge value.
	data[20] = 0xFF
	data[21] = 0xFF
	data[22] = 0x7F
	if _, err := Load(bytes.NewReader(data), g); err == nil {
		t.Errorf("corrupted count accepted")
	}
}

func TestLoadRejectsDuplicateOrder(t *testing.T) {
	g := gen.Clique(5) // every run has degree 4
	ix := Build(g, BuildOptions{})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Orders follow the counts: header 20 bytes + 4*len(cn) bytes.
	orderStart := 20 + 4*len(ix.cn)
	copy(data[orderStart:orderStart+4], data[orderStart+4:orderStart+8])
	if _, err := Load(bytes.NewReader(data), g); err == nil {
		t.Errorf("duplicate order entry accepted")
	}
}

func TestSaveLoadBigDegreeVertex(t *testing.T) {
	// A hub of degree 99 sizes Load's duplicate check past 64 entries.
	g := gen.Star(100)
	ix := Build(g, BuildOptions{})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, g); err != nil {
		t.Fatalf("star index round trip: %v", err)
	}
}
