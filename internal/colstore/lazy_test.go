package colstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// lazyTestTable builds a table exercising all four types, NULLs, and
// several chunks at chunk size 64.
func lazyTestTable(t testing.TB, rows int) *storage.Table {
	t.Helper()
	schema := storage.MustSchema(
		storage.Field{Name: "i", Type: storage.Int64},
		storage.Field{Name: "f", Type: storage.Float64},
		storage.Field{Name: "s", Type: storage.String},
		storage.Field{Name: "b", Type: storage.Bool},
	)
	b := storage.NewBuilder("lazy", schema)
	for r := 0; r < rows; r++ {
		var iv, fv, sv, bv any
		iv = int64(r * 3)
		fv = float64(r) / 7
		sv = fmt.Sprintf("cat%d", r%5)
		bv = r%3 == 0
		if r%11 == 0 {
			iv = nil
		}
		if r%13 == 0 {
			sv = nil
		}
		if r%17 == 0 {
			fv = nil
		}
		if r%19 == 0 {
			bv = nil
		}
		b.MustAppendRow(iv, fv, sv, bv)
	}
	return b.MustBuild()
}

func writeTemp(t *testing.T, tbl *storage.Table, chunkSize int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.atl")
	if err := WriteFile(path, tbl, chunkSize); err != nil {
		t.Fatal(err)
	}
	return path
}

// tablesEqual compares every cell through the generic accessors.
func tablesEqual(t *testing.T, want, got *storage.Table, label string) {
	t.Helper()
	if want.NumRows() != got.NumRows() || want.NumCols() != got.NumCols() {
		t.Fatalf("%s: shape (%d,%d) != (%d,%d)", label, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c := 0; c < want.NumCols(); c++ {
		wc, gc := want.Column(c), got.Column(c)
		if wc.NullCount() != gc.NullCount() {
			t.Fatalf("%s: column %d null count %d != %d", label, c, gc.NullCount(), wc.NullCount())
		}
		for r := 0; r < want.NumRows(); r++ {
			if wc.IsNull(r) != gc.IsNull(r) || wc.Render(r) != gc.Render(r) {
				t.Fatalf("%s: column %d row %d: got (%v,%q) want (%v,%q)",
					label, c, r, gc.IsNull(r), gc.Render(r), wc.IsNull(r), wc.Render(r))
			}
		}
	}
}

// TestLazyOpenMatchesEager: a lazily opened store must be cell-for-cell
// identical to the eager open — with and without mmap, at an unbounded
// and a thrash-sized cache budget.
func TestLazyOpenMatchesEager(t *testing.T) {
	tbl := lazyTestTable(t, 1000)
	path := writeTemp(t, tbl, 64)
	eager, err := OpenWith(path, Options{Mode: ModeEager})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"mmap/unbounded", Options{Mode: ModeLazy}},
		{"mmap/1chunk", Options{Mode: ModeLazy, CacheBytes: 600}},
		{"pread/unbounded", Options{Mode: ModeLazy, DisableMmap: true}},
		{"pread/1chunk", Options{Mode: ModeLazy, DisableMmap: true, CacheBytes: 600}},
		{"mmap/verifycrc", Options{Mode: ModeLazy, VerifyCRC: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := OpenWith(path, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if !s.Lazy() {
				t.Fatal("store should be lazy")
			}
			tablesEqual(t, eager.Table(), s.Table(), tc.name)
			if st := s.IOStats(); st.ChunksDecoded == 0 {
				t.Error("no chunks decoded despite full read")
			}
			// Zone maps must match the eager ones exactly.
			wck, gck := eager.Table().Chunking(), s.Table().Chunking()
			if wck.Size != gck.Size {
				t.Fatalf("chunk size %d != %d", gck.Size, wck.Size)
			}
			for c := range wck.Zones {
				for k := range wck.Zones[c] {
					w, g := wck.Zones[c][k], gck.Zones[c][k]
					if w.Min != g.Min || w.Max != g.Max || w.HasMinMax != g.HasMinMax ||
						w.NullCount != g.NullCount || w.Distinct != g.Distinct ||
						len(w.CodeSet) != len(g.CodeSet) {
						t.Fatalf("zone (%d,%d) differs: %+v vs %+v", c, k, g, w)
					}
				}
			}
		})
	}
}

// TestLazyCorruptChunk: a chunk whose bytes fail the directory CRC must
// surface a named *storage.ChunkError on first touch — not a panic, and
// not silently wrong data.
func TestLazyCorruptChunk(t *testing.T) {
	tbl := lazyTestTable(t, 500)
	path := writeTemp(t, tbl, 64)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the first chunk of column 0 via the directory and flip one
	// value byte; reseal the file CRC so only the chunk CRC trips.
	s, err := OpenWith(path, Options{Mode: ModeLazy})
	if err != nil {
		t.Fatal(err)
	}
	ref := s.lazy.dir[0][1]
	s.Close()
	data[ref.off+int64(ref.length)-1] ^= 0xFF
	resealFile(t, path, data)

	s, err = OpenWith(path, Options{Mode: ModeLazy})
	if err != nil {
		t.Fatal(err) // open reads metadata only; corruption is in values
	}
	defer s.Close()
	lc := s.Table().Column(0).(*storage.LazyColumn)
	_, _, err = lc.Chunk(1)
	if err == nil {
		t.Fatal("corrupt chunk must fail on first touch")
	}
	var ce *storage.ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("want *storage.ChunkError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("error should name the checksum failure, got %v", err)
	}
	// Other chunks stay readable.
	if _, _, err := lc.Chunk(0); err != nil {
		t.Errorf("intact chunk failed: %v", err)
	}
}

// TestLazyTruncatedOnTouch: a file truncated after open (pread mode)
// must fail chunk fetches with an error, not panic.
func TestLazyTruncatedOnTouch(t *testing.T) {
	tbl := lazyTestTable(t, 500)
	path := writeTemp(t, tbl, 64)
	s, err := OpenWith(path, Options{Mode: ModeLazy, DisableMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := os.Truncate(path, 64); err != nil {
		t.Fatal(err)
	}
	lc := s.Table().Column(0).(*storage.LazyColumn)
	_, _, err = lc.Chunk(2)
	if err == nil {
		t.Fatal("truncated chunk must fail on first touch")
	}
	var ce *storage.ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("want *storage.ChunkError, got %T: %v", err, err)
	}
}

// TestLazyClosedFetch: fetching from a closed store errors cleanly.
func TestLazyClosedFetch(t *testing.T) {
	tbl := lazyTestTable(t, 200)
	path := writeTemp(t, tbl, 64)
	s, err := OpenWith(path, Options{Mode: ModeLazy, DisableMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	lc := s.Table().Column(0).(*storage.LazyColumn)
	if _, _, err := lc.Chunk(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lc.Chunk(1); err == nil {
		t.Fatal("fetch after Close must fail")
	}
}

// TestLazyStoreReingest: re-saving a lazily opened store must write a
// file equivalent to re-saving the eager open — same bytes, zone maps
// included (a lazy table materializes before zone computation).
func TestLazyStoreReingest(t *testing.T) {
	tbl := lazyTestTable(t, 900)
	path := writeTemp(t, tbl, 64)
	s, err := OpenWith(path, Options{Mode: ModeLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var fromLazy, fromEager bytes.Buffer
	if err := Write(&fromLazy, s.Table(), 128); err != nil {
		t.Fatal(err)
	}
	eager, err := OpenWith(path, Options{Mode: ModeEager})
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(&fromEager, eager.Table(), 128); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromLazy.Bytes(), fromEager.Bytes()) {
		t.Fatal("re-ingest of a lazy store differs from re-ingest of the eager open")
	}
	re, err := Read(fromLazy.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	zones := re.Table().Chunking().Zones
	if !zones[0][0].HasMinMax {
		t.Error("re-ingested store lost its numeric zone maps")
	}
	if zones[2][0].CodeSet == nil {
		t.Error("re-ingested store lost its categorical code sets")
	}
}

// TestLazyCloseDuringFetch: Close racing in-flight chunk fetches must
// leave every fetch either served or failed with "store closed" — no
// panic, no unmapped-memory access (run under -race in CI).
func TestLazyCloseDuringFetch(t *testing.T) {
	tbl := lazyTestTable(t, 4000)
	path := writeTemp(t, tbl, 64)
	for _, disableMmap := range []bool{false, true} {
		s, err := OpenWith(path, Options{Mode: ModeLazy, DisableMmap: disableMmap, CacheBytes: 600})
		if err != nil {
			t.Fatal(err)
		}
		lc := s.Table().Column(0).(*storage.LazyColumn)
		done := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; ; k = (k + w + 1) % lc.NumChunks() {
					select {
					case <-done:
						return
					default:
					}
					if _, _, err := lc.Chunk(k); err != nil && !strings.Contains(err.Error(), "store closed") {
						t.Errorf("unexpected fetch error: %v", err)
						return
					}
				}
			}(w)
		}
		time.Sleep(2 * time.Millisecond)
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		close(done)
		wg.Wait()
	}
}

// TestChunkCacheBudget: the decoded-chunk cache must honor its byte
// budget via eviction while still serving every chunk.
func TestChunkCacheBudget(t *testing.T) {
	tbl := lazyTestTable(t, 2000)
	path := writeTemp(t, tbl, 64)
	cache := NewChunkCache(1500) // roughly two chunks of the widest column
	s, err := OpenWith(path, Options{Mode: ModeLazy, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lc := s.Table().Column(0).(*storage.LazyColumn)
	for k := 0; k < lc.NumChunks(); k++ {
		if _, _, err := lc.Chunk(k); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Error("budgeted cache never evicted")
	}
	if st.Bytes > 1500 && st.Entries > 1 {
		t.Errorf("cache holds %d bytes over budget with %d entries", st.Bytes, st.Entries)
	}
	// Re-touching every chunk after eviction still returns correct data.
	eager, err := OpenWith(path, Options{Mode: ModeEager})
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, eager.Table(), s.Table(), "thrash")
}

// TestLazySharedCache: two stores sharing one cache account into one
// budget and detach their entries on Close.
func TestLazySharedCache(t *testing.T) {
	tbl := lazyTestTable(t, 600)
	pathA := writeTemp(t, tbl, 64)
	pathB := writeTemp(t, tbl, 64)
	cache := NewChunkCache(0)
	a, err := OpenWith(pathA, Options{Mode: ModeLazy, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenWith(pathB, Options{Mode: ModeLazy, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, s := range []*Store{a, b} {
		lc := s.Table().Column(1).(*storage.LazyColumn)
		for k := 0; k < lc.NumChunks(); k++ {
			if _, _, err := lc.Chunk(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := cache.Stats()
	if before.Entries == 0 {
		t.Fatal("no cache entries")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Entries >= before.Entries {
		t.Errorf("Close did not drop the store's entries (%d -> %d)", before.Entries, after.Entries)
	}
}

// resealFile rewrites path with data after recomputing the trailer CRC.
func resealFile(t *testing.T, path string, data []byte) {
	t.Helper()
	body := data[:len(data)-4]
	sum := crc32ChecksumIEEE(body)
	data[len(data)-4] = byte(sum)
	data[len(data)-3] = byte(sum >> 8)
	data[len(data)-2] = byte(sum >> 16)
	data[len(data)-1] = byte(sum >> 24)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// FuzzChunkDecode: arbitrary chunk bytes must never panic the decoder —
// they either decode or fail with an error.
func FuzzChunkDecode(f *testing.F) {
	// Seed with genuine encoded chunks of every type.
	seed := func(rows int) {
		schema := storage.MustSchema(
			storage.Field{Name: "i", Type: storage.Int64},
			storage.Field{Name: "f", Type: storage.Float64},
			storage.Field{Name: "s", Type: storage.String},
			storage.Field{Name: "b", Type: storage.Bool},
		)
		b := storage.NewBuilder("fz", schema)
		for r := 0; r < rows; r++ {
			var sv any = fmt.Sprintf("v%d", r%3)
			if r%5 == 0 {
				sv = nil
			}
			b.MustAppendRow(int64(r), float64(r)/3, sv, r%2 == 0)
		}
		var buf bytes.Buffer
		if err := Write(&buf, b.MustBuild(), 64); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		dirOff := int(uint64(data[len(data)-16]) | uint64(data[len(data)-15])<<8 |
			uint64(data[len(data)-14])<<16 | uint64(data[len(data)-13])<<24 |
			uint64(data[len(data)-12])<<32)
		d := &decoder{data: data[dirOff : len(data)-16]}
		h := &header{rows: rows, chunkSize: 64, fields: schema.Fields()}
		_, dir, _, err := d.directory(h, (rows+63)/64)
		if err != nil {
			f.Fatal(err)
		}
		for c := range dir {
			ref := dir[c][0]
			f.Add(byte(c), data[ref.off:ref.off+ref.length])
		}
	}
	seed(100)
	types := []storage.DataType{storage.Int64, storage.Float64, storage.String, storage.Bool}
	f.Fuzz(func(t *testing.T, colType byte, raw []byte) {
		typ := types[int(colType)%len(types)]
		fld := storage.Field{Name: "x", Type: typ}
		for _, dictLen := range []int{0, 3, 100} {
			p, err := decodeChunkPayload(raw, fld, dictLen, 64, 0)
			if err == nil && p.Rows() != 64 {
				t.Fatalf("decoded %d rows, want 64", p.Rows())
			}
		}
	})
}
