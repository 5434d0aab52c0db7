// Package binio is the binary persistence layer under every saved
// artifact in this repository — graphs, CH/TNR/SILC indexes and R-trees.
// Preprocessing the larger datasets takes minutes to hours (Figure 6(b));
// persisting the result is what a production deployment would do, so the
// library supports it for every structure whose construction is expensive.
//
// Every file is a flat v2 container (flat.go): an aligned, sectioned,
// checksummed layout designed so a file can be mmap'd and its sections
// handed to the index as zero-copy typed slices (CastSlice/CastStructs) —
// load time is O(#sections) regardless of index size, and resident memory
// is page cache shared across processes. OpenFlat verifies every section
// checksum by default; WithoutVerify defers the sweep (audit later with
// the spverify tool). The sticky-error Writer and Reader (binio.go) encode
// the container's header and its small metadata blob.
//
// Decoding failures caused by the bytes themselves — implausible lengths,
// truncated sections, checksum mismatches — wrap ErrCorrupt, so callers
// can distinguish corruption (rebuild, fall back, degrade) from
// environmental failures (missing file, permissions). docs/FORMAT.md
// documents the on-disk layout and its evolution rules.
package binio
