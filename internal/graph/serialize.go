package graph

// Binary CSR serialization. Parsing DIMACS text for a continental-scale
// network takes longer than building some of the cheap indexes, so spserve
// persists the parsed CSR arrays in the flat v2 container (internal/binio)
// and maps them back in O(1): the adjacency arrays, weights, edge ids and
// coordinates are 64-byte-aligned little-endian sections that load as
// zero-copy casts of the page cache.

import (
	"fmt"
	"io"
	"unsafe"

	"roadnet/internal/binio"
	"roadnet/internal/geom"
)

// GraphFourcc tags a flat container holding a serialized road network.
const GraphFourcc uint32 = 'G' | 'R'<<8 | 'P'<<16 | 'H'<<24

const graphMeta = "ROADNET-GRAPH\n"

// Save writes g as a flat v2 container.
func (g *Graph) Save(w io.Writer) error {
	fw := binio.NewFlatWriter(GraphFourcc)
	mw := fw.Meta()
	mw.Magic(graphMeta)
	mw.I64(int64(g.NumVertices()))
	mw.I64(int64(g.numEdges))
	mw.I32(g.bounds.MinX)
	mw.I32(g.bounds.MinY)
	mw.I32(g.bounds.MaxX)
	mw.I32(g.bounds.MaxY)
	fw.I32Section(g.firstOut)
	fw.I32Section(g.head)
	fw.I32Section(g.weight)
	fw.I32Section(g.edgeID)
	fw.I32Section(pointsAsI32(g.coords))
	_, err := fw.WriteTo(w)
	return err
}

// ReadGraph reads a graph written by Save from a stream. This is the
// copying path: the whole container is read onto the heap and the arrays
// cast (or decoded) from that buffer. Use LoadFile to map the file
// instead.
func ReadGraph(r io.Reader) (*Graph, error) {
	f, err := binio.ReadFlat(r)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return GraphFromFlat(f)
}

// LoadFile maps (or, with preferMmap false or where unsupported, reads)
// the graph file at path. A mapped graph's arrays alias the page cache:
// loading is O(1) and the resident memory is shared with every other
// process serving the same file. Call Close on the returned graph when it
// is no longer used.
//
// By default the file's checksums are verified before the graph is used —
// a flipped byte fails the load with binio.ErrCorrupt instead of routing
// over a silently wrong network. Pass binio.WithoutVerify to skip the
// verification sweep (mapped loads then stay O(#sections)).
func LoadFile(path string, preferMmap bool, opts ...binio.OpenOption) (*Graph, error) {
	f, err := binio.OpenFlat(path, preferMmap, append([]binio.OpenOption{binio.WithVerify()}, opts...)...)
	if err != nil {
		return nil, err
	}
	g, err := GraphFromFlat(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	g.backing = f
	return g, nil
}

// GraphFromFlat builds a graph over the sections of f. The graph aliases
// f's data; f must stay open for the graph's lifetime.
func GraphFromFlat(f *binio.FlatFile) (*Graph, error) {
	if f.Fourcc() != GraphFourcc {
		return nil, fmt.Errorf("graph: container holds %s, not a road network", fourccString(f.Fourcc()))
	}
	mr := f.Meta()
	mr.Magic(graphMeta)
	n := mr.I64()
	m := mr.I64()
	var bounds geom.Rect
	bounds.MinX = mr.I32()
	bounds.MinY = mr.I32()
	bounds.MaxX = mr.I32()
	bounds.MaxY = mr.I32()
	if err := mr.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	g := &Graph{numEdges: int(m), bounds: bounds}
	var err error
	if g.firstOut, err = f.I32(0); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	if g.head, err = f.I32(1); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	if g.weight, err = f.I32(2); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	if g.edgeID, err = f.I32(3); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	rawCoords, err := f.I32(4)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	g.coords = binio.CastStructs[geom.Point](rawCoords)

	// O(1) structural checks; the arrays themselves are trusted to the
	// format (they were produced by Save) and are not scanned, so a mapped
	// load touches no data pages.
	if n < 0 || m < 0 || int64(len(g.firstOut)) != n+1 ||
		int64(len(g.coords)) != n || int64(len(g.head)) != 2*m {
		return nil, fmt.Errorf("%w: graph sections sized for %d vertices / %d edges do not match header",
			binio.ErrCorrupt, len(g.firstOut)-1, len(g.head)/2)
	}
	if len(g.weight) != len(g.head) || len(g.edgeID) != len(g.head) {
		return nil, fmt.Errorf("%w: inconsistent arc array lengths", binio.ErrCorrupt)
	}
	if n > 0 && int(g.firstOut[n]) != len(g.head) {
		return nil, fmt.Errorf("%w: firstOut does not cover the arc array", binio.ErrCorrupt)
	}
	return g, nil
}

// Close releases the file mapping behind a graph returned by LoadFile. The
// graph (and every index attached to it) must not be used afterwards. It
// is a no-op for built or stream-read graphs.
func (g *Graph) Close() error {
	if g.backing == nil {
		return nil
	}
	b := g.backing
	g.backing = nil
	return b.Close()
}

// Mapped reports whether the graph's arrays alias an mmap'd file.
func (g *Graph) Mapped() bool { return g.backing != nil && g.backing.Mapped() }

// Verified reports whether the graph's bytes are known-good: either it was
// built or stream-parsed in this process (no disk bytes to distrust), or
// its backing file carried checksums that passed verification. It is false
// for file loads that skipped verification and for checksum-less legacy
// files.
func (g *Graph) Verified() bool { return g.backing == nil || g.backing.Verified() }

// pointsAsI32 reinterprets the coordinate array as its int32 layout
// (geom.Point is exactly two int32s).
func pointsAsI32(pts []geom.Point) []int32 {
	if len(pts) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&pts[0])), 2*len(pts))
}

// fourccString renders a fourcc tag for error messages.
func fourccString(fourcc uint32) string {
	b := []byte{byte(fourcc), byte(fourcc >> 8), byte(fourcc >> 16), byte(fourcc >> 24)}
	for i, c := range b {
		if c < 0x20 || c > 0x7e {
			b[i] = '?'
		}
	}
	return fmt.Sprintf("%q", b)
}
