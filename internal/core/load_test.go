package core_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/ch"
	"roadnet/internal/core"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

// saveToFile writes ix with core.SaveIndex and returns the file path.
func saveToFile(t *testing.T, ix core.Index, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveIndex(ix, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadIndexFileOracle is the zero-copy correctness oracle: for each
// serializable technique it compares the freshly built index against the
// same index loaded back from disk through both load paths (heap and mmap)
// and requires them to be indistinguishable (see requireSameIndex).
func TestLoadIndexFileOracle(t *testing.T) {
	g, err := gen.GeneratePreset("DE")
	if err != nil {
		t.Fatal(err)
	}
	pairs := testutil.SamplePairs(g, 200, 163)
	pathPairs := testutil.SamplePairs(g, 50, 165)
	for _, m := range []core.Method{core.MethodCH, core.MethodTNR, core.MethodSILC} {
		built, err := core.BuildIndex(m, g, core.Config{TNR: tnr.Options{GridSize: 8}})
		if err != nil {
			t.Fatal(err)
		}
		path := saveToFile(t, built, string(m)+".idx")

		for _, preferMmap := range []bool{false, true} {
			loaded, info, err := core.LoadIndexFile(m, path, g, preferMmap)
			if err != nil {
				t.Fatalf("%s preferMmap=%v: %v", m, preferMmap, err)
			}
			wantMapped := preferMmap && binio.MmapSupported
			if info.Mapped != wantMapped {
				t.Errorf("%s preferMmap=%v: Mapped=%v, want %v", m, preferMmap, info.Mapped, wantMapped)
			}
			if info.SizeBytes <= 0 {
				t.Errorf("%s: SizeBytes=%d, want > 0", m, info.SizeBytes)
			}
			requireSameIndex(t, fmt.Sprintf("%s preferMmap=%v", m, preferMmap), built, loaded, pairs, pathPairs)
			if err := core.CloseIndex(loaded); err != nil {
				t.Errorf("%s: CloseIndex: %v", m, err)
			}
		}
	}
}

// TestLoadIndexFileErrors covers the failure paths: missing file, garbage
// content (rejected as binio.ErrNotFlat), and a flat file of the wrong
// technique.
func TestLoadIndexFileErrors(t *testing.T) {
	g := testutil.SmallRoad(200, 915)

	if _, _, err := core.LoadIndexFile(core.MethodCH, filepath.Join(t.TempDir(), "absent.idx"), g, true); err == nil {
		t.Error("missing file must fail")
	}

	garbage := filepath.Join(t.TempDir(), "garbage.idx")
	if err := os.WriteFile(garbage, []byte("not an index at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.LoadIndexFile(core.MethodCH, garbage, g, true); !errors.Is(err, binio.ErrNotFlat) {
		t.Errorf("garbage file: got %v, want binio.ErrNotFlat", err)
	}

	chIx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	chPath := saveToFile(t, chIx, "ch.idx")
	if _, _, err := core.LoadIndexFile(core.MethodSILC, chPath, g, true); err == nil {
		t.Error("cross-method flat load must fail")
	}
	if _, _, err := core.LoadIndexFile(core.MethodDijkstra, chPath, g, true); err == nil {
		t.Error("non-serializable method must fail")
	}
}

// TestMappedSearchersShareIndex checks that searchers over an mmap-loaded
// index work and agree with the convenience methods.
func TestMappedSearchersShareIndex(t *testing.T) {
	g := testutil.SmallRoad(400, 917)
	built, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := saveToFile(t, built, "ch.idx")
	loaded, _, err := core.LoadIndexFile(core.MethodCH, path, g, true)
	if err != nil {
		t.Fatal(err)
	}
	defer core.CloseIndex(loaded)
	s := loaded.NewSearcher()
	for _, p := range testutil.SamplePairs(g, 100, 169) {
		if got, want := s.Distance(p[0], p[1]), loaded.Distance(p[0], p[1]); got != want {
			t.Fatalf("searcher dist(%d,%d)=%d, index says %d", p[0], p[1], got, want)
		}
	}
}

// TestLoadOlderCHLayout loads a CH file in the older eight-section layout,
// which appended the shortcut middles as sorted (u, v, middle) sections
// 5-7, and requires it to answer exactly like the built hierarchy.
func TestLoadOlderCHLayout(t *testing.T) {
	g, err := gen.GeneratePreset("DE")
	if err != nil {
		t.Fatal(err)
	}
	built, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := binio.OpenFlat(saveToFile(t, built, "ch.idx"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	fw := binio.NewFlatWriter(ch.Fourcc)
	mr, mw := f.Meta(), fw.Meta()
	mw.Magic("ROADNET-CH\n")
	mr.Magic("ROADNET-CH\n")
	for range 4 { // vertices, edges, shortcuts, build time
		mw.I64(mr.I64())
	}
	if err := mr.Err(); err != nil {
		t.Fatal(err)
	}
	sec := make([][]int32, 5) // rank, firstUp, upHead, upWeight, upMiddle
	for i := range sec {
		if sec[i], err = f.I32(i); err != nil {
			t.Fatal(err)
		}
		fw.I32Section(sec[i])
	}
	type triple struct{ u, v, mid int32 }
	var triples []triple
	firstUp, upHead, upMiddle := sec[1], sec[2], sec[4]
	for lo := range len(firstUp) - 1 {
		for a := firstUp[lo]; a < firstUp[lo+1]; a++ {
			u, v := int32(lo), upHead[a]
			triples = append(triples, triple{min(u, v), max(u, v), upMiddle[a]})
		}
	}
	slices.SortFunc(triples, func(a, b triple) int {
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	for _, pick := range []func(triple) int32{
		func(x triple) int32 { return x.u },
		func(x triple) int32 { return x.v },
		func(x triple) int32 { return x.mid },
	} {
		col := make([]int32, len(triples))
		for i, x := range triples {
			col[i] = pick(x)
		}
		fw.I32Section(col)
	}
	older := filepath.Join(t.TempDir(), "ch-older.idx")
	out, err := os.Create(older)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.WriteTo(out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}

	pairs := testutil.SamplePairs(g, 200, 173)
	pathPairs := testutil.SamplePairs(g, 50, 175)
	for _, preferMmap := range []bool{false, true} {
		loaded, _, err := core.LoadIndexFile(core.MethodCH, older, g, preferMmap)
		if err != nil {
			t.Fatalf("preferMmap=%v: %v", preferMmap, err)
		}
		requireSameIndex(t, fmt.Sprintf("older ch preferMmap=%v", preferMmap), built, loaded, pairs, pathPairs)
		if err := core.CloseIndex(loaded); err != nil {
			t.Errorf("CloseIndex: %v", err)
		}
	}
}

// requireSameIndex fails t unless loaded reports built's IndexBytes, gives
// built's distance on every pair, and gives built's path — materialized and
// streamed through OpenPath — on every path pair.
func requireSameIndex(t *testing.T, name string, built, loaded core.Index, pairs, pathPairs [][2]graph.VertexID) {
	t.Helper()
	if b, l := built.Stats().IndexBytes, loaded.Stats().IndexBytes; b != l {
		t.Errorf("%s: IndexBytes built %d, loaded %d", name, b, l)
	}
	for _, p := range pairs {
		if got, want := loaded.Distance(p[0], p[1]), built.Distance(p[0], p[1]); got != want {
			t.Fatalf("%s: dist(%d,%d)=%d, built says %d", name, p[0], p[1], got, want)
		}
	}
	bs, ls := built.NewSearcher(), loaded.NewSearcher()
	for _, p := range pathPairs {
		gotPath, gotD := loaded.ShortestPath(p[0], p[1])
		wantPath, wantD := built.ShortestPath(p[0], p[1])
		if gotD != wantD || !slices.Equal(gotPath, wantPath) {
			t.Fatalf("%s: path(%d,%d) differs from built index", name, p[0], p[1])
		}
		gotPath, gotD = drainPath(t, ls, p)
		wantPath, wantD = drainPath(t, bs, p)
		if gotD != wantD || !slices.Equal(gotPath, wantPath) {
			t.Fatalf("%s: OpenPath(%d,%d) differs from built index", name, p[0], p[1])
		}
	}
}

func drainPath(t *testing.T, s core.Searcher, p [2]graph.VertexID) ([]graph.VertexID, int64) {
	t.Helper()
	it, d, err := core.OpenPath(context.Background(), s, p[0], p[1])
	if err != nil {
		t.Fatal(err)
	}
	if it == nil {
		return nil, d
	}
	path, err := graph.AppendPath(nil, it)
	if err != nil {
		t.Fatal(err)
	}
	return path, d
}
