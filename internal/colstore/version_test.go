package colstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/storage"
)

func versionTestTable(t testing.TB) *storage.Table {
	t.Helper()
	schema := storage.MustSchema(
		storage.Field{Name: "n", Type: storage.Int64},
		storage.Field{Name: "s", Type: storage.String},
	)
	b := storage.NewBuilder("old", schema)
	for i := 0; i < 500; i++ {
		b.MustAppendRow(int64(i), []string{"x", "y", "z"}[i%3])
	}
	return b.MustBuild()
}

// oldVersionImage returns a v3 image of tbl with its version byte
// patched to v and the trailer CRC recomputed, so only the version
// check can reject it.
func oldVersionImage(t *testing.T, tbl *storage.Table, v byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tbl, 128); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	data[4] = v
	reseal(data)
	return data
}

// TestV2CodeSetsRoundTrip: the writer persists code sets and the reader
// hands them back exactly as ingest computed them.
func TestV2CodeSetsRoundTrip(t *testing.T) {
	tbl := versionTestTable(t)
	want, err := storage.ComputeChunking(tbl, 128)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tbl, 128); err != nil {
		t.Fatal(err)
	}
	st, err := Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := st.Table().Chunking()
	si := tbl.Schema().Index("s")
	for k, zm := range got.Zones[si] {
		if !reflect.DeepEqual(zm.CodeSet, want.Zones[si][k].CodeSet) {
			t.Fatalf("chunk %d: code set %v, want %v", k, zm.CodeSet, want.Zones[si][k].CodeSet)
		}
		if zm.CodeSet == nil {
			t.Fatalf("chunk %d: no code set", k)
		}
	}
}

// TestOldVersionRejected: v1 and v2 images fail an eager read with the
// named re-ingest error, and the chunk decoder refuses every encoding
// version but the current one.
func TestOldVersionRejected(t *testing.T) {
	tbl := versionTestTable(t)
	for _, v := range []byte{1, 2} {
		_, err := Read(oldVersionImage(t, tbl, v))
		if !errors.Is(err, ErrOldVersion) {
			t.Errorf("v%d image: err = %v, want ErrOldVersion", v, err)
		}
	}
	st, err := Read(oldVersionImage(t, tbl, Version))
	if err != nil {
		t.Fatalf("resealed v%d image: %v", Version, err)
	}
	raw, _, err := st.RawChunk(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := tbl.Schema().Field(0)
	if _, err := DecodeChunk(raw, f, 0, 128, 0, st.WireVersion()); err != nil {
		t.Fatalf("DecodeChunk at the wire version: %v", err)
	}
	for _, v := range []byte{1, 2} {
		if _, err := DecodeChunk(raw, f, 0, 128, 0, v); !errors.Is(err, ErrOldVersion) {
			t.Errorf("DecodeChunk version %d: err = %v, want ErrOldVersion", v, err)
		}
	}
	if _, err := DecodeChunk(raw, f, 0, 128, 0, Version+1); err == nil || errors.Is(err, ErrOldVersion) {
		t.Errorf("DecodeChunk version %d: err = %v, want an unsupported-version error", Version+1, err)
	}
}

// TestV1RejectsV2Flags: a current image carrying code-set flags, with
// its version byte demoted to 1, is refused by the version check with
// the named re-ingest error, never misparsed or rejected by flag.
func TestV1RejectsV2Flags(t *testing.T) {
	tbl := versionTestTable(t)
	data := oldVersionImage(t, tbl, 1)
	st, err := Read(data)
	if err == nil {
		t.Fatalf("v1 image with code-set flags opened (%d rows)", st.Table().NumRows())
	}
	if !errors.Is(err, ErrOldVersion) {
		t.Errorf("err = %v, want ErrOldVersion", err)
	}
	if strings.Contains(err.Error(), "unknown flags") {
		t.Errorf("err = %v: flags were read before the version check", err)
	}
}

// TestLazyOpenOldVersionRejected: v1 and v2 files fail every open mode
// (lazy over mmap, lazy over pread, eager) with the named re-ingest
// error instead of falling back to another reader.
func TestLazyOpenOldVersionRejected(t *testing.T) {
	tbl := versionTestTable(t)
	for _, v := range []byte{1, 2} {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("v%d.atl", v))
		if err := os.WriteFile(path, oldVersionImage(t, tbl, v), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, o := range []Options{
			{Mode: ModeLazy},
			{Mode: ModeLazy, DisableMmap: true},
			{Mode: ModeEager},
		} {
			s, err := OpenWith(path, o)
			if !errors.Is(err, ErrOldVersion) {
				if s != nil {
					s.Close()
				}
				t.Errorf("v%d %+v: err = %v, want ErrOldVersion", v, o, err)
			}
		}
	}
}
