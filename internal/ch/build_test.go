package ch

import (
	"bytes"
	"testing"

	"roadnet/internal/testutil"
)

// TestCHBuildDeterministic builds one graph twice and requires the saved
// files to match byte for byte once the wall-clock build time is zeroed:
// the upward arcs, and so the settled counts of queries with ties, must
// not depend on anything but the graph and the options.
func TestCHBuildDeterministic(t *testing.T) {
	g := testutil.SmallRoad(900, 861)
	var saved [2][]byte
	for i := range saved {
		h := Build(g, Options{})
		h.buildTime = 0
		var buf bytes.Buffer
		if err := h.Save(&buf); err != nil {
			t.Fatal(err)
		}
		saved[i] = buf.Bytes()
	}
	if !bytes.Equal(saved[0], saved[1]) {
		t.Fatalf("two builds of one graph saved different files (%d and %d bytes)", len(saved[0]), len(saved[1]))
	}
}
