package colstore

import (
	"bytes"
	"fmt"
	"hash/crc32"

	"repro/internal/storage"
)

// This file is the chunk-plane export surface of the store: access to a
// chunk's *encoded* bytes plus their CRC, and the matching standalone
// decoder. A remote shard server (internal/remote) ships these bytes
// verbatim — for lazy stores straight out of the file, reusing the
// directory's per-chunk CRCs — and the coordinator decodes them with
// DecodeChunk, so the wire format IS the file format and integrity
// checking costs one CRC pass per transferred chunk on each side.

// WireVersion returns the format version RawChunk encodes chunks in —
// always Version, the only one a store can be opened at.
func (s *Store) WireVersion() byte { return Version }

// RawChunk returns the encoded bytes of chunk k of column ci (the
// flags..values range the directory names) and their CRC-32 (IEEE).
// Lazy stores serve the stored byte range and the directory's per-chunk
// CRC without decoding; eager stores re-encode the chunk. The returned
// slice is caller-owned.
func (s *Store) RawChunk(ci, k int) ([]byte, uint32, error) {
	if s.lazy != nil {
		return s.lazy.rawChunk(ci, k)
	}
	t := s.table
	if ci < 0 || ci >= t.NumCols() {
		return nil, 0, fmt.Errorf("colstore: column %d out of range", ci)
	}
	ck := t.Chunking()
	if ck == nil {
		return nil, 0, fmt.Errorf("colstore: store table has no chunk metadata")
	}
	numChunks := ck.NumChunks(t.NumRows())
	if k < 0 || k >= numChunks {
		return nil, 0, fmt.Errorf("colstore: chunk (%d,%d) out of range", ci, k)
	}
	lo := k * ck.Size
	hi := lo + ck.Size
	if hi > t.NumRows() {
		hi = t.NumRows()
	}
	var buf bytes.Buffer
	e := &encoder{w: &buf}
	e.chunk(t.Column(ci), ck.Zones[ci][k], storage.NullWords(t.Column(ci)), lo, hi)
	if e.err != nil {
		return nil, 0, e.err
	}
	raw := buf.Bytes()
	return raw, crc32.ChecksumIEEE(raw), nil
}

// rawChunk reads the stored byte range of chunk (ci, k), copying it out
// of the mapping so the caller's slice survives Close.
func (lf *lazyFile) rawChunk(ci, k int) ([]byte, uint32, error) {
	if ci < 0 || ci >= len(lf.dir) || k < 0 || k >= len(lf.dir[ci]) {
		return nil, 0, fmt.Errorf("colstore: chunk (%d,%d) out of range", ci, k)
	}
	lf.closeMu.RLock()
	defer lf.closeMu.RUnlock()
	if lf.closed.Load() {
		return nil, 0, fmt.Errorf("colstore: %s: store closed", lf.path)
	}
	ref := lf.dir[ci][k]
	raw, err := lf.readRange(ref.off, ref.length)
	if err != nil {
		return nil, 0, fmt.Errorf("colstore: %s: reading chunk (%d,%d): %w", lf.path, ci, k, err)
	}
	return append([]byte(nil), raw...), ref.crc, nil
}

// NumChunks returns the store's chunk count per column.
func (s *Store) NumChunks() int {
	rows := s.table.NumRows()
	if rows == 0 {
		return 0
	}
	return (rows + s.ChunkSize - 1) / s.ChunkSize
}

// DecodeChunk decodes one encoded chunk — bytes produced by RawChunk or
// named by a directory — into a chunk-local payload. f is the column's
// field, dictLen its dictionary size (0 for non-string columns),
// chunkRows the chunk's row count, k its index (error context), and
// version the encoding version (see WireVersion): anything but Version
// is rejected, with ErrOldVersion for older ones.
func DecodeChunk(raw []byte, f storage.Field, dictLen, chunkRows, k int, version byte) (*storage.ChunkPayload, error) {
	if err := checkVersion(version); err != nil {
		return nil, err
	}
	return decodeChunkPayload(raw, f, dictLen, chunkRows, k)
}
