// Package colstore implements the on-disk columnar segment store behind
// Atlas: a persistent, versioned binary format (".atl") that a table is
// ingested into once and reopened from in milliseconds, instead of
// re-parsing CSV on every process start.
//
// # Format (version 3)
//
// All integers are little-endian; "uv" is an unsigned varint
// (encoding/binary Uvarint).
//
//	magic   "ATLS" (4 bytes)
//	version u8 (= 3)
//	uv nameLen | table name (UTF-8)
//	uv rows
//	uv chunkSize          // rows per chunk; positive multiple of 64
//	uv cols
//	per column: uv nameLen | field name | u8 type (storage.DataType)
//	per column segment:
//	  (String columns) dictionary: uv entries; per entry uv len | bytes
//	  per chunk (ceil(rows/chunkSize) chunks):
//	    u8 flags            // 1 = has null words, 2 = has min/max,
//	                        // 4 = has code set
//	    (flag 2) f64 min | f64 max     // IEEE-754 bits
//	    uv nullCount
//	    uv distinct         // distinct non-null values in the chunk
//	    (flag 4) code set: uv words | words × u64  // bit i = dictionary
//	                        // code i occurs in the chunk (String columns
//	                        // with at most storage.MaxZoneCodes codes)
//	    (flag 1) null bitmap: ceil(chunkRows/64) × u64 packed words
//	    values:
//	      Int64/Float64  chunkRows × u64 (two's-complement / IEEE bits)
//	      Bool           ceil(chunkRows/64) × u64 packed bits
//	      String         chunkRows × u32 dictionary codes
//	directory:            // duplicates every segment's metadata so a
//	                      // lazy open reads it in one seek — see below
//	  per column:
//	    (String columns) uv dictOff | uv dictLen   // dictionary byte range
//	    per chunk:
//	      uv off | uv len // chunk byte range (flags..values)
//	      u32 chunkCRC    // CRC-32 (IEEE) of those bytes
//	      zone map        // same encoding as the chunk header
//	                      // (flags..code set, no null bitmap or values)
//	dirOff  u64           // absolute offset of the directory
//	dirCRC  u32           // CRC-32 (IEEE) of the directory bytes, so a
//	                      // lazy open verifies the metadata it prunes
//	                      // by without reading the whole file
//	trailer u32 CRC-32 (IEEE) of every preceding byte
//
// Only version 3 is read. Older images (v1 lacked code sets, v2 the
// directory) fail with ErrOldVersion: re-ingest the source data.
//
// The per-chunk min/max, null count, distinct estimate and categorical
// code set form the zone maps: Open hands them to
// storage.NewChunkedTable, and the engine's scan path prunes chunks
// whose zone maps prove they cannot match a predicate — numeric ranges
// via min/max, equality/IN predicates via the code sets — and shards
// one scan chunk-by-chunk across workers.
//
// # Memory tiers
//
// Open chooses between two residency modes (see Options):
//
//   - eager: the whole file is read, verified against the trailer CRC
//     and decoded into plain in-memory columns — the right call for
//     tables that comfortably fit in RAM.
//   - lazy: the file is mmapped (or pread on demand), only the header
//     and the directory are parsed, and chunks decode on first touch
//     into a bounded, shared decoded-chunk cache (lazy.go, cache.go).
//     Zone maps then work as an I/O filter: a pruned chunk is never
//     read or decoded at all, which is what lets tables larger than RAM
//     serve from the same file format. Per-chunk CRCs keep integrity
//     checking without a whole-file read.
//
// Chunk sizes are multiples of 64 so chunk boundaries align with
// selection-bitmap words: null words and packed bool words of a chunk
// are verbatim slices of the whole-column bitmaps, making both ingest
// and reload copy-only.
package colstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/bitvec"
	"repro/internal/storage"
)

const (
	magic = "ATLS"
	// Version is the format version byte, the only one written or read.
	// Version 2 added per-chunk categorical code sets; version 3 added
	// the trailer directory with per-chunk offsets and CRCs (the
	// lazy-open index).
	Version = 3
	// DefaultChunkSize is the default rows-per-chunk at ingest.
	DefaultChunkSize = storage.ChunkRows
	// maxDictEntries bounds a string column's dictionary, enforced
	// symmetrically at Write and Read: a file the writer produces is
	// always reopenable, and a crafted file cannot demand implausible
	// allocations.
	maxDictEntries = 1 << 24
)

// ErrOldVersion reports an .atl image written in a format version older
// than Version. Such stores predate the trailer directory; re-ingest the
// source data to upgrade them.
var ErrOldVersion = errors.New("colstore: format version predates v3; re-ingest the source data")

// Store is an opened .atl file: the table plus file-level metadata. The
// table carries the store's chunk metadata, so scans over it prune via
// zone maps automatically. Eager stores hold fully decoded columns;
// lazy stores hold storage.LazyColumn views whose chunks decode on
// first touch (see Options).
type Store struct {
	// Path is the file the store was opened from ("" for Read).
	Path string
	// ChunkSize is the ingest chunk size in rows.
	ChunkSize int
	table     *storage.Table
	// lazy is non-nil for memory-tiered stores.
	lazy *lazyFile
}

// Table returns the store's table (chunk-aware).
func (s *Store) Table() *storage.Table { return s.table }

// Lazy reports whether the store serves chunks on demand rather than
// holding fully decoded columns.
func (s *Store) Lazy() bool { return s.lazy != nil }

// Close releases the store's file mapping and descriptor. Eager stores
// are plain in-memory tables and Close is a no-op. Chunks already
// decoded stay valid (payloads are copies), but further first touches
// fail.
func (s *Store) Close() error {
	if s.lazy == nil {
		return nil
	}
	return s.lazy.close()
}

// IOStats returns the store's cumulative lazy-I/O counters (zero for
// eager stores).
func (s *Store) IOStats() IOStats {
	if s.lazy == nil {
		return IOStats{}
	}
	return s.lazy.ioStats()
}

// Source exposes the store's chunk source, or nil for eager stores —
// the hook a shard set uses to route a combined table's chunk fetches
// to its member files.
func (s *Store) Source() storage.ChunkSource {
	if s.lazy == nil {
		return nil
	}
	return s.lazy
}

// WriteFile ingests a table into path. chunkSize 0 uses
// DefaultChunkSize; otherwise it must be a positive multiple of 64.
// The file is written to a temporary sibling and renamed into place, so
// a failed or interrupted ingest never destroys an existing store.
func WriteFile(path string, t *storage.Table, chunkSize int) error {
	_, err := WriteFileStats(path, t, chunkSize)
	return err
}

// WriteFileStats is WriteFile returning the chunk metadata computed at
// ingest — the zone maps callers (sharded ingest) reduce into
// file-level statistics without rescanning the table.
func WriteFileStats(path string, t *storage.Table, chunkSize int) (*storage.Chunking, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	tmp := f.Name()
	ck, err := write(f, t, chunkSize)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	return ck, nil
}

// Write serializes a table in .atl format. Zone maps are computed here,
// at ingest, so Open never rescans values.
func Write(w io.Writer, t *storage.Table, chunkSize int) error {
	_, err := write(w, t, chunkSize)
	return err
}

// chunkRef locates one encoded chunk inside the file: the byte range
// holding its header and values, and the CRC of those bytes.
type chunkRef struct {
	off, length int64
	crc         uint32
}

// byteRange is a (offset, length) pair into the file.
type byteRange struct{ off, length int64 }

// write is Write returning the chunk metadata computed at ingest.
func write(w io.Writer, t *storage.Table, chunkSize int) (*storage.Chunking, error) {
	if chunkSize == 0 {
		chunkSize = DefaultChunkSize
	}
	// Re-ingesting an opened lazy store: materialize before computing
	// zone maps, which need typed column access.
	t, err := materializeLazyTable(t)
	if err != nil {
		return nil, err
	}
	ck, err := storage.ComputeChunking(t, chunkSize)
	if err != nil {
		return nil, err
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<20)
	e := &encoder{w: bw}

	e.raw([]byte(magic))
	e.u8(Version)
	e.bytes([]byte(t.Name()))
	e.uv(uint64(t.NumRows()))
	e.uv(uint64(chunkSize))
	e.uv(uint64(t.NumCols()))
	for i := 0; i < t.NumCols(); i++ {
		f := t.Schema().Field(i)
		e.bytes([]byte(f.Name))
		e.u8(byte(f.Type))
	}
	numChunks := ck.NumChunks(t.NumRows())
	dir := make([][]chunkRef, t.NumCols())
	dictRanges := make([]byteRange, t.NumCols())
	var chunkBuf bytes.Buffer
	for c := 0; c < t.NumCols(); c++ {
		col := t.Column(c)
		if sc, ok := col.(*storage.StringColumn); ok {
			dict := sc.Dict()
			if len(dict) > maxDictEntries {
				return nil, fmt.Errorf("colstore: column %q has %d distinct values, format limit is %d",
					t.Schema().Field(c).Name, len(dict), maxDictEntries)
			}
			dictStart := e.n
			e.uv(uint64(len(dict)))
			for _, s := range dict {
				e.bytes([]byte(s))
			}
			dictRanges[c] = byteRange{off: dictStart, length: e.n - dictStart}
		}
		nullWords := storage.NullWords(col)
		dir[c] = make([]chunkRef, numChunks)
		for k := 0; k < numChunks; k++ {
			lo := k * chunkSize
			hi := lo + chunkSize
			if hi > t.NumRows() {
				hi = t.NumRows()
			}
			// Encode the chunk through a scratch buffer so its byte range
			// can be CRCed for the directory.
			chunkBuf.Reset()
			ce := &encoder{w: &chunkBuf}
			ce.chunk(col, ck.Zones[c][k], nullWords, lo, hi)
			if ce.err != nil {
				return nil, ce.err
			}
			b := chunkBuf.Bytes()
			dir[c][k] = chunkRef{off: e.n, length: int64(len(b)), crc: crc32.ChecksumIEEE(b)}
			e.raw(b)
		}
	}
	dirOff := e.n
	// The directory is encoded through the scratch buffer so its own CRC
	// lands in the footer: a lazy open can then verify the exact bytes its
	// pruning decisions come from.
	chunkBuf.Reset()
	de := &encoder{w: &chunkBuf}
	for c := 0; c < t.NumCols(); c++ {
		if t.Schema().Field(c).Type == storage.String {
			de.uv(uint64(dictRanges[c].off))
			de.uv(uint64(dictRanges[c].length))
		}
		for k := 0; k < numChunks; k++ {
			ref := dir[c][k]
			de.uv(uint64(ref.off))
			de.uv(uint64(ref.length))
			de.u32(ref.crc)
			de.zoneHeader(ck.Zones[c][k])
		}
	}
	if de.err != nil {
		return nil, de.err
	}
	dirBytes := chunkBuf.Bytes()
	e.raw(dirBytes)
	e.u64(uint64(dirOff))
	e.u32(crc32.ChecksumIEEE(dirBytes))
	if e.err != nil {
		return nil, e.err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err = w.Write(tail[:]); err != nil {
		return nil, err
	}
	return ck, nil
}

// materializeLazyTable returns t with every memory-tiered column
// decoded into a plain eager one (t itself when none is lazy) — the
// adapter that lets an opened lazy store be re-ingested with full zone
// maps.
func materializeLazyTable(t *storage.Table) (*storage.Table, error) {
	lazy := false
	for c := 0; c < t.NumCols(); c++ {
		if _, ok := t.Column(c).(*storage.LazyColumn); ok {
			lazy = true
			break
		}
	}
	if !lazy {
		return t, nil
	}
	cols := make([]storage.Column, t.NumCols())
	for c := 0; c < t.NumCols(); c++ {
		mat, err := storage.MaterializeColumn(t.Column(c))
		if err != nil {
			return nil, fmt.Errorf("colstore: materializing column %q: %w", t.Schema().Field(c).Name, err)
		}
		cols[c] = mat
	}
	return storage.NewTable(t.Name(), t.Schema(), cols)
}

// byteWriter is the sink an encoder writes to: bufio.Writer for the
// file stream, bytes.Buffer for per-chunk scratch encoding.
type byteWriter interface {
	io.Writer
	io.ByteWriter
}

// encoder wraps a writer with little-endian primitives, sticky errors
// and a running byte count (file offsets for the directory).
type encoder struct {
	w   byteWriter
	err error
	n   int64
	buf [binary.MaxVarintLen64]byte
}

func (e *encoder) raw(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
		e.n += int64(len(b))
	}
}

func (e *encoder) u8(v byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(v)
		e.n++
	}
}

func (e *encoder) uv(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.raw(e.buf[:n])
}

func (e *encoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	e.raw(e.buf[:4])
}

func (e *encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	e.raw(e.buf[:8])
}

func (e *encoder) bytes(b []byte) {
	e.uv(uint64(len(b)))
	e.raw(b)
}

const (
	flagNulls   = 1
	flagMinMax  = 2
	flagCodeSet = 4
)

// zoneHeader writes one zone map in the shared header encoding (flags,
// optional min/max, null count, distinct, optional code set) — the
// prefix of every chunk, and the per-chunk metadata record of the
// directory.
func (e *encoder) zoneHeader(zm storage.ZoneMap) {
	var flags byte
	if zm.NullCount > 0 {
		flags |= flagNulls
	}
	if zm.HasMinMax {
		flags |= flagMinMax
	}
	if zm.CodeSet != nil {
		flags |= flagCodeSet
	}
	e.u8(flags)
	if zm.HasMinMax {
		e.u64(math.Float64bits(zm.Min))
		e.u64(math.Float64bits(zm.Max))
	}
	e.uv(uint64(zm.NullCount))
	e.uv(uint64(zm.Distinct))
	if zm.CodeSet != nil {
		e.uv(uint64(len(zm.CodeSet)))
		for _, w := range zm.CodeSet {
			e.u64(w)
		}
	}
}

// chunk writes one column chunk: zone map, null words, values.
func (e *encoder) chunk(col storage.Column, zm storage.ZoneMap, nullWords []uint64, lo, hi int) {
	w0, w1 := lo/64, (hi+63)/64
	e.zoneHeader(zm)
	if zm.NullCount > 0 {
		// Chunk boundaries are word-aligned, so the chunk's null words
		// are a verbatim slice of the column bitmap.
		for wi := w0; wi < w1; wi++ {
			e.u64(nullWords[wi])
		}
	}
	switch c := col.(type) {
	case *storage.Int64Column:
		vals := c.Values()
		for i := lo; i < hi; i++ {
			e.u64(uint64(vals[i]))
		}
	case *storage.Float64Column:
		vals := c.Values()
		for i := lo; i < hi; i++ {
			e.u64(math.Float64bits(vals[i]))
		}
	case *storage.BoolColumn:
		vals := c.Values()
		var w uint64
		for i := lo; i < hi; i++ {
			if vals[i] {
				w |= 1 << uint((i-lo)%64)
			}
			if (i-lo)%64 == 63 {
				e.u64(w)
				w = 0
			}
		}
		if (hi-lo)%64 != 0 {
			e.u64(w)
		}
	case *storage.StringColumn:
		codes := c.Codes()
		for i := lo; i < hi; i++ {
			e.u32(codes[i])
		}
	default:
		if e.err == nil {
			e.err = fmt.Errorf("colstore: unsupported column type %T", col)
		}
	}
}

// Open opens an .atl file. The residency mode is chosen automatically:
// files below AutoLazyThreshold decode eagerly, larger files open
// lazily (override with OpenWith or the ATLAS_STORE_MODE environment
// variable — see Options).
func Open(path string) (*Store, error) {
	return OpenWith(path, Options{})
}

// header is the decoded fixed part of an .atl file.
type header struct {
	name      string
	rows      int
	chunkSize int
	fields    []storage.Field
	// end is the byte offset just past the header.
	end int
}

// parseHeader decodes and validates the file header from d (positioned
// at the version byte, after the magic).
func parseHeader(d *decoder) (*header, error) {
	h := &header{}
	if err := checkVersion(d.u8()); d.err == nil && err != nil {
		return nil, err
	}
	h.name = string(d.bytes())
	rowsU := d.uv()
	h.chunkSize = int(d.uv())
	numCols := int(d.uv())
	if d.err != nil {
		return nil, d.err
	}
	if rowsU > 1<<40 {
		return nil, fmt.Errorf("implausible row count %d", rowsU)
	}
	h.rows = int(rowsU)
	// The upper bound keeps chunk arithmetic (rows+chunkSize-1) far from
	// int overflow on crafted headers.
	if h.chunkSize <= 0 || h.chunkSize%64 != 0 || h.chunkSize > 1<<30 {
		return nil, fmt.Errorf("invalid chunk size %d", h.chunkSize)
	}
	if numCols < 0 || numCols > 1<<20 {
		return nil, fmt.Errorf("implausible column count %d", numCols)
	}
	h.fields = make([]storage.Field, numCols)
	for i := range h.fields {
		h.fields[i].Name = string(d.bytes())
		typ := storage.DataType(d.u8())
		switch typ {
		case storage.Int64, storage.Float64, storage.String, storage.Bool:
		default:
			return nil, fmt.Errorf("column %q: unknown type %d", h.fields[i].Name, typ)
		}
		h.fields[i].Type = typ
	}
	if d.err != nil {
		return nil, d.err
	}
	if numCols == 0 && h.rows != 0 {
		return nil, fmt.Errorf("%d rows but no columns", h.rows)
	}
	h.end = d.off
	return h, nil
}

// checkVersion accepts only the current format version; older versions
// fail with ErrOldVersion.
func checkVersion(v byte) error {
	switch {
	case v == Version:
		return nil
	case v >= 1 && v < Version:
		return fmt.Errorf("%w (file is version %d)", ErrOldVersion, v)
	default:
		return fmt.Errorf("unsupported version %d (this reader handles %d)", v, Version)
	}
}

// minBitsPerRow returns the minimum value-payload bits one row costs —
// the plausibility bound applied to claimed row counts before any
// row-sized allocation.
func (h *header) minBitsPerRow() int {
	bits := 0
	for _, f := range h.fields {
		switch f.Type {
		case storage.Int64, storage.Float64:
			bits += 64
		case storage.String:
			bits += 32
		case storage.Bool:
			bits++
		}
	}
	return bits
}

// Read decodes an .atl image eagerly. The CRC trailer is verified
// before any decoding, so a truncated or corrupted file fails fast.
func Read(data []byte) (*Store, error) {
	if len(data) < len(magic)+1+4 {
		return nil, fmt.Errorf("file too short (%d bytes)", len(data))
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("bad magic %q", data[:4])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("checksum mismatch (file %08x, computed %08x)", want, got)
	}
	d := &decoder{data: body, off: 4}
	h, err := parseHeader(d)
	if err != nil {
		return nil, err
	}
	rows, chunkSize, numCols := h.rows, h.chunkSize, len(h.fields)
	// Before allocating row-sized slices, check the claimed row count
	// against the bytes actually present: every row needs at least
	// minBitsPerRow of value payload, so a corrupted or crafted header
	// fails here instead of panicking in makeslice (or OOMing).
	remaining := uint64(len(d.data) - d.off)
	if mb := h.minBitsPerRow(); mb > 0 && uint64(rows) > remaining*8/uint64(mb) {
		return nil, fmt.Errorf("implausible row count %d for %d remaining bytes", rows, remaining)
	}
	schema, err := storage.NewSchema(h.fields...)
	if err != nil {
		return nil, err
	}
	ck := &storage.Chunking{Size: chunkSize, Zones: make([][]storage.ZoneMap, numCols)}
	numChunks := ck.NumChunks(rows)
	cols := make([]storage.Column, numCols)
	for c := range cols {
		col, zones, err := d.column(h.fields[c], rows, chunkSize, numChunks)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", h.fields[c].Name, err)
		}
		cols[c] = col
		ck.Zones[c] = zones
	}
	if d.err != nil {
		return nil, d.err
	}
	// The directory duplicates segment metadata for lazy opens; an eager
	// read validates its structure, position and CRC.
	dirStart := d.off
	if _, _, _, err := d.directory(h, numChunks); err != nil {
		return nil, fmt.Errorf("directory: %w", err)
	}
	dirEnd := d.off
	dirOff := d.u64()
	dirCRC := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	if int(dirOff) != dirStart {
		return nil, fmt.Errorf("directory offset %d does not match its position %d", dirOff, dirStart)
	}
	if got := crc32.ChecksumIEEE(d.data[dirStart:dirEnd]); got != dirCRC {
		return nil, fmt.Errorf("directory checksum mismatch (footer %08x, computed %08x)", dirCRC, got)
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("%d trailing bytes after last segment", len(d.data)-d.off)
	}
	tbl, err := storage.NewChunkedTable(h.name, schema, cols, ck)
	if err != nil {
		return nil, err
	}
	return &Store{ChunkSize: chunkSize, table: tbl}, nil
}

// directory parses the trailer directory from d's current position,
// returning per-column dictionary ranges, chunk references, and the
// zone maps recorded in it.
func (d *decoder) directory(h *header, numChunks int) (dictRanges []byteRange, dir [][]chunkRef, zones [][]storage.ZoneMap, err error) {
	// Every (column, chunk) entry takes at least minDirEntry bytes; check
	// the claimed chunk count against the bytes present before any
	// chunk-sized allocation, so a crafted header cannot demand one.
	if cols := len(h.fields); cols > 0 && numChunks > (len(d.data)-d.off)/minDirEntry/cols {
		return nil, nil, nil, fmt.Errorf("%d chunks × %d columns do not fit a %d-byte directory", numChunks, cols, len(d.data)-d.off)
	}
	dictRanges = make([]byteRange, len(h.fields))
	dir = make([][]chunkRef, len(h.fields))
	zones = make([][]storage.ZoneMap, len(h.fields))
	for c, f := range h.fields {
		if f.Type == storage.String {
			dictRanges[c] = byteRange{off: int64(d.uv()), length: int64(d.uv())}
		}
		dir[c] = make([]chunkRef, numChunks)
		zones[c] = make([]storage.ZoneMap, numChunks)
		for k := 0; k < numChunks; k++ {
			ref := chunkRef{off: int64(d.uv()), length: int64(d.uv()), crc: d.u32()}
			chunkRows := h.chunkSize
			if hi := (k + 1) * h.chunkSize; hi > h.rows {
				chunkRows = h.rows - k*h.chunkSize
			}
			// Code-set sizing is validated against the real dictionary when
			// chunks decode; the directory pass applies the structural
			// bound only (dictLen -1).
			zm, _, zerr := d.zoneHeader(f, -1, chunkRows, k)
			if zerr != nil {
				return nil, nil, nil, zerr
			}
			if d.err != nil {
				return nil, nil, nil, d.err
			}
			dir[c][k] = ref
			zones[c][k] = zm
		}
	}
	return dictRanges, dir, zones, d.err
}

// minDirEntry is the smallest encoding of one directory entry: one-byte
// offset and length varints, the u32 CRC, and a zone header of flags,
// null count and distinct count.
const minDirEntry = 1 + 1 + 4 + 3

// decoder walks a byte image with sticky errors and bounds checks.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	// n > remaining (not off+n > len) so a crafted length near MaxInt
	// cannot overflow past the check.
	if n < 0 || n > len(d.data)-d.off {
		d.fail("truncated: need %d bytes at offset %d, have %d", n, d.off, len(d.data)-d.off)
		return false
	}
	return true
}

func (d *decoder) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

func (d *decoder) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bytes() []byte {
	n := int(d.uv())
	if n < 0 || !d.need(n) {
		d.fail("bad byte-string length %d at offset %d", n, d.off)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// dictLen decodes a dictionary's entry count, bounded by the format
// limit and by the bytes left (every entry takes at least its one-byte
// length), so a crafted count cannot demand an implausible allocation.
func (d *decoder) dictLen() (int, error) {
	n := d.uv()
	if d.err != nil {
		return 0, d.err
	}
	if n > maxDictEntries || n > uint64(len(d.data)-d.off) {
		return 0, fmt.Errorf("implausible dictionary size %d", n)
	}
	return int(n), nil
}

// zoneHeader decodes one zone map in the shared header encoding (the
// prefix of every chunk, and the directory's per-chunk record). dictLen
// is the column's dictionary size, used to validate code-set sizing;
// pass -1 when the dictionary is not at hand (directory pass), which
// applies the structural bound only.
func (d *decoder) zoneHeader(f storage.Field, dictLen, chunkRows, k int) (storage.ZoneMap, byte, error) {
	flags := d.u8()
	if d.err == nil && flags&^(flagNulls|flagMinMax|flagCodeSet) != 0 {
		return storage.ZoneMap{}, 0, fmt.Errorf("chunk %d: unknown flags %#x", k, flags)
	}
	zm := storage.ZoneMap{}
	if flags&flagMinMax != 0 {
		zm.Min = math.Float64frombits(d.u64())
		zm.Max = math.Float64frombits(d.u64())
		zm.HasMinMax = true
	}
	zm.NullCount = int(d.uv())
	zm.Distinct = int(d.uv())
	if d.err != nil {
		return storage.ZoneMap{}, 0, d.err
	}
	if zm.NullCount < 0 || zm.NullCount > chunkRows {
		return storage.ZoneMap{}, 0, fmt.Errorf("chunk %d: null count %d out of range", k, zm.NullCount)
	}
	if flags&flagCodeSet != 0 {
		// The writer only emits code sets for dictionary columns whose
		// cardinality fits the zone-code bound, always sized to the
		// dictionary. Anything else is a malformed file — reject it
		// rather than let a short bitset mis-prune scans.
		nw := int(d.uv())
		if f.Type != storage.String {
			return storage.ZoneMap{}, 0, fmt.Errorf("chunk %d: code set on %v column", k, f.Type)
		}
		maxWords := (storage.MaxZoneCodes + 63) / 64
		if dictLen >= 0 {
			if dictLen == 0 || dictLen > storage.MaxZoneCodes || nw != (dictLen+63)/64 {
				return storage.ZoneMap{}, 0, fmt.Errorf("chunk %d: code set of %d words for %d dictionary entries", k, nw, dictLen)
			}
		} else if nw <= 0 || nw > maxWords {
			return storage.ZoneMap{}, 0, fmt.Errorf("chunk %d: implausible code set of %d words", k, nw)
		}
		set := make([]uint64, nw)
		for wi := range set {
			set[wi] = d.u64()
		}
		zm.CodeSet = set
	}
	if d.err != nil {
		return storage.ZoneMap{}, 0, d.err
	}
	return zm, flags, nil
}

// column decodes one column segment: optional dictionary, then
// numChunks chunks of zone map + nulls + values.
func (d *decoder) column(f storage.Field, rows, chunkSize, numChunks int) (storage.Column, []storage.ZoneMap, error) {
	var dict []string
	if f.Type == storage.String {
		// Shared dictionaries (gathers, samples) may exceed the row
		// count, so only guard against the format bound Write enforces.
		n, err := d.dictLen()
		if err != nil {
			return nil, nil, err
		}
		dict = make([]string, n)
		for i := range dict {
			dict[i] = string(d.bytes())
		}
	}
	var (
		ints   []int64
		floats []float64
		bools  []bool
		codes  []uint32
	)
	switch f.Type {
	case storage.Int64:
		ints = make([]int64, rows)
	case storage.Float64:
		floats = make([]float64, rows)
	case storage.Bool:
		bools = make([]bool, rows)
	case storage.String:
		codes = make([]uint32, rows)
	}
	nulls := bitvec.New(rows)
	nullWords := nulls.Words()
	totalNulls := 0
	zones := make([]storage.ZoneMap, numChunks)
	for k := 0; k < numChunks; k++ {
		lo := k * chunkSize
		hi := lo + chunkSize
		if hi > rows {
			hi = rows
		}
		chunkRows := hi - lo
		chunkWords := (chunkRows + 63) / 64
		zm, flags, err := d.zoneHeader(f, len(dict), chunkRows, k)
		if err != nil {
			return nil, nil, err
		}
		zones[k] = zm
		if flags&flagNulls != 0 {
			for wi := 0; wi < chunkWords; wi++ {
				nullWords[lo/64+wi] = d.u64()
			}
			totalNulls += zm.NullCount
		}
		// Values decode with one bounds check per chunk, not per element.
		switch f.Type {
		case storage.Int64:
			if !d.need(8 * chunkRows) {
				return nil, nil, d.err
			}
			buf := d.data[d.off:]
			for i := 0; i < chunkRows; i++ {
				ints[lo+i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
			}
			d.off += 8 * chunkRows
		case storage.Float64:
			if !d.need(8 * chunkRows) {
				return nil, nil, d.err
			}
			buf := d.data[d.off:]
			for i := 0; i < chunkRows; i++ {
				floats[lo+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
			}
			d.off += 8 * chunkRows
		case storage.Bool:
			for wi := 0; wi < chunkWords; wi++ {
				w := d.u64()
				for b := 0; b < 64 && lo+wi*64+b < hi; b++ {
					bools[lo+wi*64+b] = w&(1<<uint(b)) != 0
				}
			}
		case storage.String:
			if !d.need(4 * chunkRows) {
				return nil, nil, d.err
			}
			buf := d.data[d.off:]
			for i := 0; i < chunkRows; i++ {
				codes[lo+i] = binary.LittleEndian.Uint32(buf[i*4:])
			}
			d.off += 4 * chunkRows
		}
		if d.err != nil {
			return nil, nil, d.err
		}
	}
	var nv *bitvec.Vector
	if totalNulls > 0 {
		nv = nulls
	}
	switch f.Type {
	case storage.Int64:
		return storage.NewInt64Column(ints, nv), zones, nil
	case storage.Float64:
		return storage.NewFloat64Column(floats, nv), zones, nil
	case storage.Bool:
		return storage.NewBoolColumn(bools, nv), zones, nil
	default:
		for i, code := range codes {
			if int(code) >= len(dict) {
				if nv == nil || !nv.Get(i) {
					return nil, nil, fmt.Errorf("row %d: code %d out of dictionary range %d", i, code, len(dict))
				}
				// NULL rows never have their code read, but clamp them
				// in-range so every downstream kernel can index the
				// dictionary before checking the null bitmap.
				codes[i] = 0
			}
		}
		return storage.NewStringColumnFromDict(dict, codes, nv), zones, nil
	}
}
