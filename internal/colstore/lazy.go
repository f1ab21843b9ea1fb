package colstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obsv"
	"repro/internal/storage"
)

// Mode selects how OpenWith materializes a store.
type Mode int

const (
	// ModeAuto decodes eagerly below AutoLazyThreshold and lazily above
	// it; the ATLAS_STORE_MODE environment variable ("eager"/"lazy")
	// overrides the size heuristic.
	ModeAuto Mode = iota
	// ModeEager reads, CRC-verifies and decodes the whole file at open.
	ModeEager
	// ModeLazy maps the file and decodes chunks on first touch.
	ModeLazy
)

// AutoLazyThreshold is the file size above which ModeAuto opens lazily:
// 64 MiB keeps small stores on the simple eager path while anything
// RAM-relevant pays only a metadata read at open.
const AutoLazyThreshold = 64 << 20

// Options tunes OpenWith — the memory-tier knobs.
type Options struct {
	// Mode selects eager or lazy residency (default ModeAuto).
	Mode Mode
	// CacheBytes bounds the decoded-chunk cache of a lazy store: > 0 is
	// a byte budget, < 0 forces unbounded, 0 consults the
	// ATLAS_CHUNK_CACHE_BUDGET environment variable (bytes) and falls
	// back to unbounded. Ignored when Cache is set or the store opens
	// eagerly.
	CacheBytes int64
	// Cache, when non-nil, is used instead of a store-private cache so
	// several stores (a shard set) share one byte budget.
	Cache *ChunkCache
	// DisableMmap forces pread-on-demand instead of mmap.
	DisableMmap bool
	// VerifyCRC forces the whole-file trailer CRC check even for lazy
	// opens (one full sequential read). Lazy opens otherwise verify the
	// directory CRC at open and each chunk's CRC on first touch.
	VerifyCRC bool
}

// IOStats is a snapshot of a lazy store's cumulative I/O counters.
type IOStats struct {
	// BytesRead counts encoded bytes fetched from the file for chunk
	// decodes (metadata reads at open excluded).
	BytesRead int64
	// ChunksDecoded counts chunk payload decodes (cache misses).
	ChunksDecoded int64
	// CacheHits counts chunk fetches served from the decoded cache.
	CacheHits int64
	// CacheEvictions counts payloads dropped to honor the byte budget.
	CacheEvictions int64
	// CacheBytes is the decoded bytes currently cached.
	CacheBytes int64
}

// OpenWith opens an .atl file with explicit memory-tier options.
func OpenWith(path string, o Options) (*Store, error) {
	mode := o.Mode
	if mode == ModeAuto {
		switch os.Getenv("ATLAS_STORE_MODE") {
		case "eager":
			mode = ModeEager
		case "lazy":
			mode = ModeLazy
		}
	}
	if mode == ModeAuto {
		if fi, err := os.Stat(path); err == nil && fi.Size() >= AutoLazyThreshold {
			mode = ModeLazy
		} else {
			mode = ModeEager
		}
	}
	if mode == ModeLazy {
		s, err := openLazy(path, o)
		if err != nil {
			return nil, fmt.Errorf("colstore: %s: %w", path, err)
		}
		return s, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Read(data)
	if err != nil {
		return nil, fmt.Errorf("colstore: %s: %w", path, err)
	}
	s.Path = path
	return s, nil
}

// ResolveCacheBudget maps an Options.CacheBytes value to a ChunkCache
// budget, applying the package conventions: > 0 passes through, < 0
// forces unbounded, 0 consults ATLAS_CHUNK_CACHE_BUDGET and falls back
// to unbounded.
func ResolveCacheBudget(cacheBytes int64) int64 { return resolveCacheBudget(cacheBytes) }

// resolveCacheBudget applies the CacheBytes conventions (env fallback).
func resolveCacheBudget(cacheBytes int64) int64 {
	if cacheBytes != 0 {
		if cacheBytes < 0 {
			return 0 // unbounded
		}
		return cacheBytes
	}
	if v := os.Getenv("ATLAS_CHUNK_CACHE_BUDGET"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			return n
		}
	}
	return 0
}

// lazyFile is an open memory-tiered .atl file: the mmap (or fd), the
// parsed header and directory, and the chunk cache. It implements
// storage.ChunkSource and storage.ChunkPrefetcher.
type lazyFile struct {
	path string
	f    *os.File
	data []byte // mmap; nil = pread via f
	size int64

	rows      int
	chunkSize int
	fields    []storage.Field
	dicts     [][]string // per column; nil for non-string
	dir       [][]chunkRef
	zones     [][]storage.ZoneMap

	cache *ChunkCache

	bytesRead     atomic.Int64
	chunksDecoded atomic.Int64
	prefetching   atomic.Int64
	// closeMu serializes close against in-flight chunk reads: fetch
	// loaders hold the read side across the mmap access, so munmap can
	// never pull the mapping out from under a reader.
	closeMu sync.RWMutex
	closed  atomic.Bool
}

var _ storage.ChunkPrefetcher = (*lazyFile)(nil)

// openLazy opens path in lazy mode.
func openLazy(path string, o Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Store, error) {
		f.Close()
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	size := fi.Size()
	if size < int64(len(magic))+1+4 {
		return fail(fmt.Errorf("file too short (%d bytes)", size))
	}
	lf := &lazyFile{path: path, f: f, size: size}
	if !o.DisableMmap {
		lf.data = mmapFile(f, size)
	}

	// Parse the header. With mmap it reads in place; with pread a
	// growing prefix is fetched until the header fits.
	h, err := lf.parseFileHeader()
	if err != nil {
		return fail(err)
	}
	lf.rows = h.rows
	lf.chunkSize = h.chunkSize
	lf.fields = h.fields

	if o.VerifyCRC {
		if err := lf.verifyFileCRC(); err != nil {
			return fail(err)
		}
	}

	numChunks := 0
	if h.rows > 0 {
		numChunks = (h.rows + h.chunkSize - 1) / h.chunkSize
	}
	dictRanges, err := lf.loadDirectory(h, numChunks)
	if err != nil {
		return fail(err)
	}
	if err := lf.loadDicts(dictRanges); err != nil {
		return fail(err)
	}
	if err := lf.validateDir(numChunks); err != nil {
		return fail(err)
	}

	if o.Cache != nil {
		lf.cache = o.Cache
	} else {
		lf.cache = NewChunkCache(resolveCacheBudget(o.CacheBytes))
	}

	tbl, err := lf.buildTable(h.name)
	if err != nil {
		return fail(err)
	}
	return &Store{Path: path, ChunkSize: h.chunkSize, table: tbl, lazy: lf}, nil
}

// readRange fetches bytes [off, off+n) of the file: an mmap slice
// (zero-copy) or a pread into a fresh buffer.
func (lf *lazyFile) readRange(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > lf.size {
		return nil, fmt.Errorf("range [%d,+%d) outside file of %d bytes", off, n, lf.size)
	}
	if lf.data != nil {
		return lf.data[off : off+n], nil
	}
	buf := make([]byte, n)
	if _, err := lf.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// parseFileHeader decodes the header, growing the fetched prefix as
// needed in pread mode.
func (lf *lazyFile) parseFileHeader() (*header, error) {
	if lf.data != nil {
		if string(lf.data[:4]) != magic {
			return nil, fmt.Errorf("bad magic %q", lf.data[:4])
		}
		d := &decoder{data: lf.data[:lf.size-4], off: 4}
		return parseHeader(d)
	}
	for n := int64(64 << 10); ; n *= 2 {
		if n > lf.size {
			n = lf.size
		}
		prefix, err := lf.readRange(0, n)
		if err != nil {
			return nil, err
		}
		if string(prefix[:4]) != magic {
			return nil, fmt.Errorf("bad magic %q", prefix[:4])
		}
		body := prefix
		if n == lf.size {
			body = prefix[:n-4]
		}
		d := &decoder{data: body, off: 4}
		h, herr := parseHeader(d)
		if herr == nil {
			return h, nil
		}
		if n == lf.size {
			return nil, herr
		}
		// A truncation error may just mean the prefix was too short; any
		// other failure is final.
		if d.err == nil {
			return nil, herr
		}
	}
}

// verifyFileCRC streams the whole file through the trailer CRC check in
// bounded memory (mmap checksums in place; pread walks a fixed buffer).
func (lf *lazyFile) verifyFileCRC() error {
	var got uint32
	if lf.data != nil {
		got = crc32.ChecksumIEEE(lf.data[:lf.size-4])
	} else {
		h := crc32.NewIEEE()
		buf := make([]byte, 4<<20)
		for off := int64(0); off < lf.size-4; {
			n := int64(len(buf))
			if off+n > lf.size-4 {
				n = lf.size - 4 - off
			}
			if _, err := lf.f.ReadAt(buf[:n], off); err != nil {
				return err
			}
			h.Write(buf[:n])
			off += n
		}
		got = h.Sum32()
	}
	tail, err := lf.readRange(lf.size-4, 4)
	if err != nil {
		return err
	}
	if want := binary.LittleEndian.Uint32(tail); got != want {
		return fmt.Errorf("checksum mismatch (file %08x, computed %08x)", want, got)
	}
	return nil
}

// loadDirectory reads the trailer directory: dictionary ranges,
// chunk references and zone maps, in one footer seek plus one directory
// read.
func (lf *lazyFile) loadDirectory(h *header, numChunks int) ([]byteRange, error) {
	const footerLen = 16 // u64 dirOff | u32 dirCRC | u32 fileCRC
	if lf.size < int64(h.end)+footerLen {
		return nil, fmt.Errorf("file too short for directory footer")
	}
	footer, err := lf.readRange(lf.size-footerLen, footerLen)
	if err != nil {
		return nil, err
	}
	dirOff := int64(binary.LittleEndian.Uint64(footer[:8]))
	dirCRC := binary.LittleEndian.Uint32(footer[8:12])
	if dirOff < int64(h.end) || dirOff > lf.size-footerLen {
		return nil, fmt.Errorf("directory offset %d outside file body [%d,%d)", dirOff, h.end, lf.size-footerLen)
	}
	dirBytes, err := lf.readRange(dirOff, lf.size-footerLen-dirOff)
	if err != nil {
		return nil, err
	}
	// The directory carries the zone maps every pruning decision rests
	// on; verify its CRC before trusting any of it.
	if got := crc32.ChecksumIEEE(dirBytes); got != dirCRC {
		return nil, fmt.Errorf("directory checksum mismatch (footer %08x, computed %08x)", dirCRC, got)
	}
	d := &decoder{data: dirBytes}
	dictRanges, dir, zones, err := d.directory(h, numChunks)
	if err != nil {
		return nil, fmt.Errorf("directory: %w", err)
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("directory: %d trailing bytes", len(d.data)-d.off)
	}
	lf.dir = dir
	lf.zones = zones
	return dictRanges, nil
}

// loadDicts decodes the dictionaries of string columns from their byte
// ranges.
func (lf *lazyFile) loadDicts(dictRanges []byteRange) error {
	lf.dicts = make([][]string, len(lf.fields))
	for c, f := range lf.fields {
		if f.Type != storage.String {
			continue
		}
		r := dictRanges[c]
		if r.length <= 0 {
			return fmt.Errorf("column %q: missing dictionary range", f.Name)
		}
		buf, err := lf.readRange(r.off, r.length)
		if err != nil {
			return fmt.Errorf("column %q dictionary: %w", f.Name, err)
		}
		d := &decoder{data: buf}
		n, err := d.dictLen()
		if err != nil {
			return fmt.Errorf("column %q dictionary: %w", f.Name, err)
		}
		dict := make([]string, n)
		for i := range dict {
			dict[i] = string(d.bytes())
		}
		if d.err != nil {
			return fmt.Errorf("column %q dictionary: %w", f.Name, d.err)
		}
		if d.off != len(d.data) {
			return fmt.Errorf("column %q dictionary: %d trailing bytes", f.Name, len(d.data)-d.off)
		}
		lf.dicts[c] = dict
	}
	return nil
}

// validateDir cross-checks every chunk reference against the file
// bounds, and code-set zone maps against the loaded dictionaries, so a
// crafted directory fails at open rather than at first touch.
func (lf *lazyFile) validateDir(numChunks int) error {
	for c, f := range lf.fields {
		if len(lf.dir[c]) != numChunks {
			return fmt.Errorf("column %q: %d directory entries for %d chunks", f.Name, len(lf.dir[c]), numChunks)
		}
		for k, ref := range lf.dir[c] {
			if ref.off < 0 || ref.length <= 0 || ref.off+ref.length > lf.size-4 {
				return fmt.Errorf("column %q chunk %d: byte range [%d,+%d) outside file", f.Name, k, ref.off, ref.length)
			}
			if set := lf.zones[c][k].CodeSet; set != nil {
				dictLen := len(lf.dicts[c])
				if dictLen == 0 || dictLen > storage.MaxZoneCodes || len(set) != (dictLen+63)/64 {
					return fmt.Errorf("column %q chunk %d: code set of %d words for %d dictionary entries",
						f.Name, k, len(set), dictLen)
				}
			}
		}
	}
	return nil
}

// buildTable assembles the lazy chunk-aware table over this file.
func (lf *lazyFile) buildTable(name string) (*storage.Table, error) {
	schema, err := storage.NewSchema(lf.fields...)
	if err != nil {
		return nil, err
	}
	cols := make([]storage.Column, len(lf.fields))
	for c, f := range lf.fields {
		nullCount := 0
		for _, zm := range lf.zones[c] {
			nullCount += zm.NullCount
		}
		cols[c], err = storage.NewLazyColumn(storage.LazyColumnConfig{
			Source: lf, Col: c, Type: f.Type,
			Rows: lf.rows, ChunkSize: lf.chunkSize,
			NullCount: nullCount, Dict: lf.dicts[c],
		})
		if err != nil {
			return nil, err
		}
	}
	ck := &storage.Chunking{Size: lf.chunkSize, Zones: lf.zones}
	return storage.NewChunkedTable(name, schema, cols, ck)
}

// FetchChunkCtx implements storage.ChunkSource: cache lookup, then read
// + CRC + decode on a miss. A miss's read and decode are billed to the
// context's resource ledger at the same sites the store's own lifetime
// counters move, so a query's ledger delta equals its IOStats delta.
func (lf *lazyFile) FetchChunkCtx(ctx context.Context, ci, k int) (*storage.ChunkPayload, bool, error) {
	if ci < 0 || ci >= len(lf.dir) || k < 0 || k >= len(lf.dir[ci]) {
		return nil, false, fmt.Errorf("colstore: chunk (%d,%d) out of range", ci, k)
	}
	led := obsv.LedgerFrom(ctx)
	return lf.cache.getCtx(ctx, chunkKey{src: lf, ci: ci, k: k}, func() (*storage.ChunkPayload, error) {
		if err := obsv.CheckCtx(ctx, "colstore.load"); err != nil {
			return nil, err
		}
		lf.closeMu.RLock()
		defer lf.closeMu.RUnlock()
		if lf.closed.Load() {
			return nil, fmt.Errorf("colstore: %s: store closed", lf.path)
		}
		ref := lf.dir[ci][k]
		raw, err := lf.readRange(ref.off, ref.length)
		if err != nil {
			return nil, fmt.Errorf("colstore: %s: reading chunk (%d,%d): %w", lf.path, ci, k, err)
		}
		lf.bytesRead.Add(ref.length)
		led.ReadBytes(ref.length)
		if got := crc32.ChecksumIEEE(raw); got != ref.crc {
			return nil, fmt.Errorf("colstore: %s: chunk (%d,%d) checksum mismatch (directory %08x, computed %08x)",
				lf.path, ci, k, ref.crc, got)
		}
		chunkRows := lf.chunkSize
		if hi := (k + 1) * lf.chunkSize; hi > lf.rows {
			chunkRows = lf.rows - k*lf.chunkSize
		}
		p, err := decodeChunkPayload(raw, lf.fields[ci], len(lf.dicts[ci]), chunkRows, k)
		if err != nil {
			return nil, fmt.Errorf("colstore: %s: chunk (%d,%d): %w", lf.path, ci, k, err)
		}
		lf.chunksDecoded.Add(1)
		led.StoreChunkDecoded()
		return p, nil
	})
}

// decodeChunkPayload decodes one chunk's bytes (header + values) into a
// chunk-local payload.
func decodeChunkPayload(raw []byte, f storage.Field, dictLen, chunkRows, k int) (*storage.ChunkPayload, error) {
	d := &decoder{data: raw}
	zm, flags, err := d.zoneHeader(f, dictLen, chunkRows, k)
	if err != nil {
		return nil, err
	}
	chunkWords := (chunkRows + 63) / 64
	p := &storage.ChunkPayload{}
	if flags&flagNulls != 0 {
		if !d.need(8 * chunkWords) {
			return nil, d.err
		}
		nulls := make([]uint64, chunkWords)
		for wi := range nulls {
			nulls[wi] = binary.LittleEndian.Uint64(d.data[d.off+wi*8:])
		}
		d.off += 8 * chunkWords
		p.Nulls = nulls
	}
	switch f.Type {
	case storage.Int64:
		if !d.need(8 * chunkRows) {
			return nil, d.err
		}
		buf := d.data[d.off:]
		vals := make([]int64, chunkRows)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		d.off += 8 * chunkRows
		p.Ints = vals
	case storage.Float64:
		if !d.need(8 * chunkRows) {
			return nil, d.err
		}
		buf := d.data[d.off:]
		vals := make([]float64, chunkRows)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		d.off += 8 * chunkRows
		p.Floats = vals
	case storage.Bool:
		if !d.need(8 * chunkWords) {
			return nil, d.err
		}
		vals := make([]bool, chunkRows)
		for wi := 0; wi < chunkWords; wi++ {
			w := binary.LittleEndian.Uint64(d.data[d.off+wi*8:])
			for b := 0; b < 64 && wi*64+b < chunkRows; b++ {
				vals[wi*64+b] = w&(1<<uint(b)) != 0
			}
		}
		d.off += 8 * chunkWords
		p.Bools = vals
	case storage.String:
		if !d.need(4 * chunkRows) {
			return nil, d.err
		}
		buf := d.data[d.off:]
		codes := make([]uint32, chunkRows)
		for i := range codes {
			codes[i] = binary.LittleEndian.Uint32(buf[i*4:])
		}
		d.off += 4 * chunkRows
		codesOK := func(i int) bool {
			return p.Nulls != nil && p.Nulls[i>>6]&(1<<uint(i&63)) != 0
		}
		for i, code := range codes {
			if int(code) >= dictLen {
				if !codesOK(i) {
					return nil, fmt.Errorf("row %d: code %d out of dictionary range %d", i, code, dictLen)
				}
				// NULL rows never have their code read, but clamp them
				// in-range so downstream kernels can index the dictionary
				// before checking the null bitmap.
				codes[i] = 0
			}
		}
		p.Codes = codes
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("%d trailing bytes in chunk", len(d.data)-d.off)
	}
	// The zone map was already recorded at open; decoding re-parses it
	// only to locate the values. Cross-check the null count so a header
	// mismatch surfaces as a decode error.
	if zm.NullCount > 0 && p.Nulls == nil {
		return nil, fmt.Errorf("chunk claims %d nulls but carries no bitmap", zm.NullCount)
	}
	return p, nil
}

// maxPrefetchInFlight bounds a file's concurrent speculative chunk
// loads; the scan itself is never throttled by this.
const maxPrefetchInFlight = 4

// PrefetchChunkCtx implements storage.ChunkPrefetcher: an asynchronous,
// single-flight, eviction-aware fetch of a chunk a sequential scan is
// about to touch. It is a no-op when the chunk is already resident (or
// loading), when caching it would evict something, or when too many
// prefetches are in flight — a prefetch must only ever hide latency,
// never change what the scan decodes or keeps. The load carries the
// request's values (so its read and decode bill the originating query's
// ledger) but detaches from its cancellation — the query may finish
// before the flight does.
func (lf *lazyFile) PrefetchChunkCtx(ctx context.Context, ci, k int) {
	if lf.closed.Load() || ci < 0 || ci >= len(lf.dir) || k < 0 || k >= len(lf.dir[ci]) {
		return
	}
	if lf.cache.Contains(lf, ci, k) {
		return
	}
	// Estimate the decoded footprint from the chunk's row count (8 bytes
	// per row bounds every column type this store encodes).
	chunkRows := lf.chunkSize
	if hi := (k + 1) * lf.chunkSize; hi > lf.rows {
		chunkRows = lf.rows - k*lf.chunkSize
	}
	if !lf.cache.HasRoom(int64(chunkRows) * 8) {
		return
	}
	if lf.prefetching.Add(1) > maxPrefetchInFlight {
		lf.prefetching.Add(-1)
		return
	}
	ctx = context.WithoutCancel(ctx)
	go func() {
		defer lf.prefetching.Add(-1)
		// Errors are ignored: failed loads are never cached, so the scan's
		// own fetch retries and reports them.
		_, _, _ = lf.FetchChunkCtx(ctx, ci, k)
	}()
}

// ioStats snapshots the file's cumulative counters.
func (lf *lazyFile) ioStats() IOStats {
	cs := lf.cache.Stats()
	return IOStats{
		BytesRead:      lf.bytesRead.Load(),
		ChunksDecoded:  lf.chunksDecoded.Load(),
		CacheHits:      cs.Hits,
		CacheEvictions: cs.Evictions,
		CacheBytes:     cs.Bytes,
	}
}

// Cache exposes the store's chunk cache (shared or private).
func (lf *lazyFile) Cache() *ChunkCache { return lf.cache }

// close releases the mapping and descriptor and drops this file's cache
// entries. It waits for in-flight chunk reads (closeMu write lock), so
// concurrent scans fail cleanly with "store closed" instead of touching
// an unmapped region.
func (lf *lazyFile) close() error {
	if lf.closed.Swap(true) {
		return nil
	}
	lf.closeMu.Lock()
	err := munmapFile(lf.data)
	lf.data = nil
	if cerr := lf.f.Close(); err == nil {
		err = cerr
	}
	lf.closeMu.Unlock()
	lf.cache.drop(lf)
	return err
}
