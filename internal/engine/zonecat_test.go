package engine

import (
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/query"
	"repro/internal/storage"
)

// catTable builds a chunked table whose category column is clustered by
// chunk: chunk k holds only value fmt.Sprintf("v%d", k%4).
func catTable(t *testing.T, rows, chunk int) *storage.Table {
	t.Helper()
	vals := make([]string, rows)
	nums := make([]int64, rows)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%d", (i/chunk)%4)
		nums[i] = int64(i)
	}
	schema := storage.MustSchema(
		storage.Field{Name: "cat", Type: storage.String},
		storage.Field{Name: "n", Type: storage.Int64},
	)
	cols := []storage.Column{storage.NewStringColumn(vals, nil), storage.NewInt64Column(nums, nil)}
	tbl := storage.MustTable("t", schema, cols)
	ck, err := storage.ComputeChunking(tbl, chunk)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := storage.NewChunkedTable("t", schema, cols, ck)
	if err != nil {
		t.Fatal(err)
	}
	return chunked
}

// TestCategoricalZonePruning: an IN predicate on a dictionary column
// prunes chunks whose code sets miss the admitted values, and
// full-matches chunks whose codes are a subset — with results identical
// to the unpruned scan.
func TestCategoricalZonePruning(t *testing.T) {
	const rows, chunk = 1024, 64
	chunked := catTable(t, rows, chunk)
	plain := storage.MustTable("t", chunked.Schema(), []storage.Column{chunked.Column(0), chunked.Column(1)})

	q := query.New("t", query.NewIn("cat", "v1"))
	var stats ScanStats
	selChunked := bitvec.NewFull(rows)
	if err := EvalAndIntoOpts(chunked, q, selChunked, ScanOptions{Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	selPlain := bitvec.NewFull(rows)
	if err := EvalAndIntoOpts(plain, q, selPlain, ScanOptions{}); err != nil {
		t.Fatal(err)
	}
	if !selChunked.Equal(selPlain) {
		t.Fatal("pruned scan selects different rows")
	}
	numChunks := rows / chunk
	// 4 of every 4 chunks: 1 matches fully, 3 prune; nothing scans.
	if got := int(stats.ChunksPruned.Load()); got != numChunks*3/4 {
		t.Errorf("pruned %d chunks, want %d", got, numChunks*3/4)
	}
	if got := int(stats.ChunksFull.Load()); got != numChunks/4 {
		t.Errorf("full-matched %d chunks, want %d", got, numChunks/4)
	}
	if got := int(stats.ChunksScanned.Load()); got != 0 {
		t.Errorf("scanned %d chunks, want 0", got)
	}

	// Multi-value IN across two codes prunes the other half.
	var stats2 ScanStats
	sel2 := bitvec.NewFull(rows)
	q2 := query.New("t", query.NewIn("cat", "v0", "v3"))
	if err := EvalAndIntoOpts(chunked, q2, sel2, ScanOptions{Stats: &stats2}); err != nil {
		t.Fatal(err)
	}
	if got := sel2.Count(); got != rows/2 {
		t.Errorf("selected %d rows, want %d", got, rows/2)
	}
	if got := int(stats2.ChunksPruned.Load()); got != numChunks/2 {
		t.Errorf("pruned %d chunks, want %d", got, numChunks/2)
	}
}

// TestCategoricalZoneWithNulls: a chunk containing NULLs can never
// full-match, only prune or scan.
func TestCategoricalZoneWithNulls(t *testing.T) {
	const rows, chunk = 256, 64
	vals := make([]string, rows)
	nulls := bitvec.New(rows)
	for i := range vals {
		vals[i] = "x"
		if i%chunk == 0 {
			nulls.Set(i)
		}
	}
	schema := storage.MustSchema(storage.Field{Name: "cat", Type: storage.String})
	cols := []storage.Column{storage.NewStringColumn(vals, nulls)}
	tbl := storage.MustTable("t", schema, cols)
	ck, err := storage.ComputeChunking(tbl, chunk)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := storage.NewChunkedTable("t", schema, cols, ck)
	if err != nil {
		t.Fatal(err)
	}
	var stats ScanStats
	sel := bitvec.NewFull(rows)
	if err := EvalAndIntoOpts(chunked, query.New("t", query.NewIn("cat", "x")), sel, ScanOptions{Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if got := sel.Count(); got != rows-rows/chunk {
		t.Errorf("selected %d rows", got)
	}
	if stats.ChunksFull.Load() != 0 {
		t.Error("chunk with NULLs reported as full match")
	}
	if stats.ChunksScanned.Load() != int64(rows/chunk) {
		t.Errorf("scanned %d chunks", stats.ChunksScanned.Load())
	}
}

// TestPartitionBitsChunkParallel: the chunk-parallel partition kernel is
// byte-identical to the serial one at any worker count, under a
// sub-selection.
func TestPartitionBitsChunkParallel(t *testing.T) {
	const rows, chunk = 10_000, 256
	chunked := catTable(t, rows, chunk)
	sel := bitvec.NewFull(rows)
	// Knock out a stripe so the partition runs under a real selection.
	for i := 0; i < rows; i += 3 {
		sel.Clear(i)
	}
	numPreds := []query.Predicate{
		query.NewRangeHalfOpen("n", 0, 2_500),
		query.NewRangeHalfOpen("n", 2_500, 7_000),
		query.NewRange("n", 7_000, 9_999),
	}
	catPreds := []query.Predicate{
		query.NewIn("cat", "v0", "v1"),
		query.NewIn("cat", "v2"),
	}
	for name, preds := range map[string][]query.Predicate{"numeric": numPreds, "categorical": catPreds} {
		want, err := PartitionBitsOpts(chunked, preds[0].Attr, preds, sel, ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 16} {
			got, err := PartitionBitsOpts(chunked, preds[0].Attr, preds, sel, ScanOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for ri := range want {
				if !got[ri].Equal(want[ri]) {
					t.Errorf("%s: workers=%d region %d differs from serial", name, workers, ri)
				}
			}
		}
	}
}
