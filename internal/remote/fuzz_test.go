package remote

import (
	"math"
	"testing"
)

// FuzzParseBatchStats: arbitrary batchstats bodies must never panic
// the client's decoder — they decode into consistent statistics or
// fail with an error.
func FuzzParseBatchStats(f *testing.F) {
	hdr := batchHeaderDTO{Stats: []batchStatDTO{
		{Attr: "age", Kind: "numeric", Off: 0, Count: 3},
		{Attr: "sex", Kind: "cat", Dict: []string{"F", "M"}, Counts: []int{4, 5}},
		{Attr: "ok", Kind: "bool", Falses: 1, Trues: 2},
		{Attr: "w", Kind: "numeric", Off: 24, Count: 0},
	}}
	body, err := encodeBatch(hdr, encodeFloats([]float64{1, math.NaN(), math.Inf(-1)}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	empty, err := encodeBatch(batchHeaderDTO{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Fuzz(func(t *testing.T, data []byte) {
		num, cat, _, err := parseBatchStats(data)
		if err != nil {
			return
		}
		_, blob, _ := decodeBatch(data)
		for attr, vals := range num {
			if 8*len(vals) > len(blob) {
				t.Fatalf("%q: %d values decoded from a %d-byte blob", attr, len(vals), len(blob))
			}
		}
		for attr, c := range cat {
			if len(c.Dict) != len(c.Counts) {
				t.Fatalf("%q: %d dictionary entries with %d counts", attr, len(c.Dict), len(c.Counts))
			}
		}
	})
}

// FuzzDecodeWords: arbitrary predcount bitmap encodings must never
// panic; whatever decodes re-encodes to the same text.
func FuzzDecodeWords(f *testing.F) {
	f.Add(encodeWords([]uint64{0, 1, math.MaxUint64}))
	f.Add(encodeWords(nil))
	f.Add("not base64!")
	f.Fuzz(func(t *testing.T, s string) {
		words, err := decodeWords(s)
		if err != nil {
			return
		}
		if again, err := decodeWords(encodeWords(words)); err != nil || len(again) != len(words) {
			t.Fatalf("re-encoded bitmap of %d words decodes to %d (err %v)", len(words), len(again), err)
		}
	})
}
