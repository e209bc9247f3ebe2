package gsindex

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"strings"
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
		a, err := ix.QueryWorkspace(context.Background(), eps, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.QueryWorkspace(context.Background(), eps, 3, nil)
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

// TestLoadFence corrupts a valid save of fuzzLoadGraph in each way only
// fence's checks see — the counts stay in 2..d(u)+2 and every run stays a
// permutation — and requires Load to refuse it for the named reason. The
// FuzzLoad corpus holds the same three files.
func TestLoadFence(t *testing.T) {
	g := fuzzLoadGraph(t)
	var buf bytes.Buffer
	if err := Build(g, BuildOptions{Workers: 1}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	m := int(g.NumDirectedEdges())
	// put sets slot i of the counts (arr 0) or the orders (arr 1).
	put := func(data []byte, arr, i int, v int32) {
		binary.LittleEndian.PutUint32(data[20+4*(arr*m+i):], uint32(v))
	}
	hub, clique := int(g.Off[0]), int(g.Off[70]) // runs of 0 (leaves 1..69) and 70 (71..74)
	cases := []struct {
		name, want string
		corrupt    func(data []byte)
	}{
		{"count-above-min-degree-plus-1", "out of range at arc (0, 1)", func(data []byte) {
			put(data, 0, hub, 3)
			put(data, 0, int(g.EdgeOffset(1, 0)), 3)
		}},
		{"count-asymmetric", "counts of arcs (70, 71) and (71, 70) differ", func(data []byte) {
			put(data, 0, clique, 4)
			for k, o := range []int32{1, 2, 3, 0} { // 71 now sorts last
				put(data, 1, clique+k, o)
			}
		}},
		{"order-misordered-tie", "neighbor order of 0 out of order", func(data []byte) {
			put(data, 1, hub, 1)
			put(data, 1, hub+1, 0)
		}},
	}
	for _, tc := range cases {
		data := bytes.Clone(buf.Bytes())
		tc.corrupt(data)
		if _, err := Load(bytes.NewReader(data), g); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestPinnedFile: testdata/planted-8x10.gsi is the GSI1 file the index
// wrote for this graph while it kept position-major counts and a position
// permutation per run. Save must still write it byte for byte, and Load
// must read it back to the index Build makes, so -indexfile files written
// before the runs became order-major keep loading.
func TestPinnedFile(t *testing.T) {
	g := gen.PlantedPartition(8, 10, 0.5, 0.05, 1)
	pinned, err := os.ReadFile("testdata/planted-8x10.gsi")
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(g, BuildOptions{Workers: 2})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), pinned) {
		t.Fatalf("Save wrote %d bytes that differ from the pinned file's %d", buf.Len(), len(pinned))
	}
	back, err := Load(bytes.NewReader(pinned), g)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, back, ix)
}
