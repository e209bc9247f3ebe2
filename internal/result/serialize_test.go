package result

import (
	"bytes"
	"testing"
)

// TestSerializeRoundTrip pins the bytes Write produces — the `ppscan -o`
// format — for a result with cores, non-cores and memberships.
func TestSerializeRoundTrip(t *testing.T) {
	r := &Result{
		Eps:           "1/5",
		Mu:            5,
		Roles:         []Role{RoleCore, RoleNonCore, RoleCore, RoleNonCore},
		CoreClusterID: []int32{0, -1, 0, -1},
		NonCore: []Membership{
			{V: 1, ClusterID: 0},
			{V: 3, ClusterID: 0},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	want := "# ppscan-result eps=1/5 mu=5 vertices=4\n" +
		"v 0 C 0\nv 1 N -1\nv 2 C 0\nv 3 N -1\n" +
		"m 1 0\nm 3 0\n"
	if got := buf.String(); got != want {
		t.Errorf("Write wrote\n%s\nwant\n%s", got, want)
	}
}

func TestSerializeDeterministic(t *testing.T) {
	r := &Result{
		Eps:           "0.5",
		Mu:            2,
		Roles:         []Role{RoleCore, RoleCore},
		CoreClusterID: []int32{0, 0},
	}
	var a, b bytes.Buffer
	if err := Write(&a, r); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, r); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("serialization not deterministic")
	}
}

// TestSerializeEmpty: an empty result is its header line alone.
func TestSerializeEmpty(t *testing.T) {
	r := &Result{Eps: "1/2", Mu: 1}
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "# ppscan-result eps=1/2 mu=1 vertices=0\n"; got != want {
		t.Errorf("Write wrote %q, want %q", got, want)
	}
}
