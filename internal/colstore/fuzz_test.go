package colstore

import (
	"bytes"
	"testing"

	"repro/internal/storage"
)

// fuzzImages returns genuine .atl images of the four column types,
// NULLs and several chunks — the seeds of the store fuzz targets.
func fuzzImages(f *testing.F) [][]byte {
	f.Helper()
	var out [][]byte
	for _, rows := range []int{0, 1, 130} {
		var buf bytes.Buffer
		if err := Write(&buf, lazyTestTable(f, rows), 64); err != nil {
			f.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzRead: arbitrary bytes must never panic or over-allocate the eager
// reader — they decode or fail with an error. The trailer CRC is
// recomputed first, so the fuzzer reaches the header, segment and
// directory parsers instead of stopping at the checksum.
func FuzzRead(f *testing.F) {
	for _, img := range fuzzImages(f) {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			data = append([]byte(nil), data...)
			reseal(data)
		}
		st, err := Read(data)
		if err != nil {
			return
		}
		if _, err := storage.ComputeChunking(st.Table(), st.ChunkSize); err != nil {
			t.Fatalf("image decoded into an unchunkable table: %v", err)
		}
	})
}

// FuzzHeaderDirectory: the metadata path of a lazy open — header,
// footer-located directory, dictionaries and the directory cross-checks
// — over arbitrary bytes must never panic or over-allocate.
func FuzzHeaderDirectory(f *testing.F) {
	for _, img := range fuzzImages(f) {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < len(magic)+1+4 {
			return
		}
		lf := &lazyFile{data: data, size: int64(len(data))}
		h, err := lf.parseFileHeader()
		if err != nil {
			return
		}
		lf.rows, lf.chunkSize, lf.fields = h.rows, h.chunkSize, h.fields
		numChunks := 0
		if h.rows > 0 {
			numChunks = (h.rows + h.chunkSize - 1) / h.chunkSize
		}
		dictRanges, err := lf.loadDirectory(h, numChunks)
		if err != nil {
			return
		}
		if err := lf.loadDicts(dictRanges); err != nil {
			return
		}
		_ = lf.validateDir(numChunks)
	})
}
