package remote

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/storage"
)

// This file defines the fabric's wire representations. Two rules keep
// the protocol honest:
//
//   - Floats travel as IEEE-754 bit patterns (hex for JSON fields,
//     little-endian u64 for binary bodies), never as decimal text: the
//     coordinator must reconstruct *exactly* the value the shard holds
//     (byte-identical explorations depend on it), and JSON numbers
//     cannot carry NaN or ±Inf at all.
//   - Bulk payloads (chunk bytes, numeric value streams) are binary;
//     everything metadata-shaped is JSON.

// fbits encodes a float64 as its hex bit pattern.
func fbits(v float64) string {
	return strconv.FormatUint(math.Float64bits(v), 16)
}

// parseFbits decodes a hex bit pattern back into a float64.
func parseFbits(s string) (float64, error) {
	u, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("remote: bad float bits %q", s)
	}
	return math.Float64frombits(u), nil
}

// Header names of the chunk plane.
const (
	// headerChunkCRC carries the chunk payload's CRC-32 (IEEE) in hex —
	// for lazy shard files, the same CRC the on-disk directory stores.
	headerChunkCRC = "X-Atlas-Chunk-Crc"
	// headerChunkLen carries the payload's byte length, so a truncated
	// body is detected even when the transport hid the short read.
	headerChunkLen = "X-Atlas-Chunk-Len"
	// headerTrace propagates the coordinator's trace context to a shard
	// server ("<traceID>/<parentSpanID>"), so the server's spans nest
	// under the RPC attempt that asked.
	headerTrace = "X-Atlas-Trace"
	// headerSpans carries the server's span subtree back in the response
	// (base64-encoded JSON, see obsv.EncodeSpanTree).
	headerSpans = "X-Atlas-Spans"
	// headerRequestID propagates the query request id, joining client
	// errors with server log lines.
	headerRequestID = "X-Atlas-Request-Id"
	// headerDeadline carries the caller's remaining deadline budget in
	// integer milliseconds; the server bounds the request's context by
	// it, aborting statcompute/chunk work whose caller has already given
	// up. Absent or malformed values mean "no deadline".
	headerDeadline = "X-Atlas-Deadline"
)

// metaDTO is GET /shard/v1/meta: the shard's identity.
type metaDTO struct {
	Table     string `json:"table"`
	Rows      int    `json:"rows"`
	ChunkSize int    `json:"chunkSize"`
	// Version is the chunk-plane encoding version (see
	// colstore.Store.WireVersion).
	Version int      `json:"version"`
	Columns []colDTO `json:"columns"`
}

type colDTO struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

func typeName(t storage.DataType) string {
	switch t {
	case storage.Int64:
		return "int64"
	case storage.Float64:
		return "float64"
	case storage.String:
		return "string"
	default:
		return "bool"
	}
}

func parseTypeName(s string) (storage.DataType, error) {
	switch s {
	case "int64":
		return storage.Int64, nil
	case "float64":
		return storage.Float64, nil
	case "string":
		return storage.String, nil
	case "bool":
		return storage.Bool, nil
	default:
		return 0, fmt.Errorf("remote: unknown column type %q", s)
	}
}

// zoneDTO is one zone map of GET /shard/v1/zones.
type zoneDTO struct {
	Min       string `json:"min,omitempty"` // Float64bits hex, valid with HasMinMax
	Max       string `json:"max,omitempty"`
	HasMinMax bool   `json:"hasMinMax,omitempty"`
	Nulls     int    `json:"nulls,omitempty"`
	Distinct  int    `json:"distinct,omitempty"`
	// CodeSet is the chunk's categorical code bitset, base64 over
	// little-endian u64 words; empty when untracked.
	CodeSet string `json:"codeSet,omitempty"`
}

// zonesDTO is GET /shard/v1/zones: [column][chunk].
type zonesDTO struct {
	Zones [][]zoneDTO `json:"zones"`
}

func zoneToDTO(zm storage.ZoneMap) zoneDTO {
	d := zoneDTO{HasMinMax: zm.HasMinMax, Nulls: zm.NullCount, Distinct: zm.Distinct}
	if zm.HasMinMax {
		d.Min, d.Max = fbits(zm.Min), fbits(zm.Max)
	}
	if zm.CodeSet != nil {
		buf := make([]byte, 8*len(zm.CodeSet))
		for i, w := range zm.CodeSet {
			binary.LittleEndian.PutUint64(buf[i*8:], w)
		}
		d.CodeSet = base64.StdEncoding.EncodeToString(buf)
	}
	return d
}

func zoneFromDTO(d zoneDTO) (storage.ZoneMap, error) {
	zm := storage.ZoneMap{HasMinMax: d.HasMinMax, NullCount: d.Nulls, Distinct: d.Distinct}
	if d.HasMinMax {
		var err error
		if zm.Min, err = parseFbits(d.Min); err != nil {
			return zm, err
		}
		if zm.Max, err = parseFbits(d.Max); err != nil {
			return zm, err
		}
	}
	if d.CodeSet != "" {
		buf, err := base64.StdEncoding.DecodeString(d.CodeSet)
		if err != nil || len(buf)%8 != 0 {
			return zm, fmt.Errorf("remote: bad code set encoding")
		}
		words := make([]uint64, len(buf)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(buf[i*8:])
		}
		zm.CodeSet = words
	}
	return zm, nil
}

// dictDTO is GET /shard/v1/dict?col=N.
type dictDTO struct {
	Values []string `json:"values"`
}

// catCountsDTO is one categorical attribute's batch statistics (local
// dictionary space; the coordinator remaps into union space).
type catCountsDTO struct {
	Dict   []string
	Counts []int
}

// boolCountsDTO is one boolean attribute's batch statistics.
type boolCountsDTO struct {
	Falses, Trues int
}

// predDTO is the wire form of a query.Predicate (POST /shard/v1/predcount).
type predDTO struct {
	Attr    string   `json:"attr"`
	Kind    int      `json:"kind"`
	Lo      string   `json:"lo,omitempty"`
	Hi      string   `json:"hi,omitempty"`
	LoIncl  bool     `json:"loIncl,omitempty"`
	HiIncl  bool     `json:"hiIncl,omitempty"`
	Values  []string `json:"values,omitempty"`
	BoolVal bool     `json:"boolVal,omitempty"`
}

func predToDTO(p query.Predicate) predDTO {
	return predDTO{
		Attr: p.Attr, Kind: int(p.Kind),
		Lo: fbits(p.Lo), Hi: fbits(p.Hi),
		LoIncl: p.LoIncl, HiIncl: p.HiIncl,
		Values: p.Values, BoolVal: p.BoolVal,
	}
}

func predFromDTO(d predDTO) (query.Predicate, error) {
	p := query.Predicate{
		Attr: d.Attr, Kind: query.PredKind(d.Kind),
		LoIncl: d.LoIncl, HiIncl: d.HiIncl,
		Values: d.Values, BoolVal: d.BoolVal,
	}
	var err error
	if d.Lo != "" {
		if p.Lo, err = parseFbits(d.Lo); err != nil {
			return p, err
		}
	}
	if d.Hi != "" {
		if p.Hi, err = parseFbits(d.Hi); err != nil {
			return p, err
		}
	}
	return p, nil
}

// countDTO is the predcount answer: the selection's popcount and its
// bitmap (base64 over little-endian u64 words, tail bits zero).
type countDTO struct {
	Count int    `json:"count"`
	Bits  string `json:"bits"`
}

// encodeWords packs a bitmap's u64 words as base64 (little-endian).
func encodeWords(words []uint64) string {
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// decodeWords unpacks a base64 little-endian word stream.
func decodeWords(s string) ([]uint64, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil || len(buf)%8 != 0 {
		return nil, fmt.Errorf("remote: bad bitmap encoding")
	}
	words := make([]uint64, len(buf)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return words, nil
}

// batchReqDTO is POST /shard/v1/batchstats: the attributes whose
// statistics the coordinator wants in one round trip.
type batchReqDTO struct {
	Attrs []string `json:"attrs"`
}

// batchStatDTO is one attribute's statistics in a batchstats answer.
// Numeric value streams live in the response's binary blob (Off/Count
// locate them) so floats travel as exact IEEE-754 bits; categorical
// and boolean answers are small and inline.
type batchStatDTO struct {
	Attr string `json:"attr"`
	// Kind is "numeric", "cat" or "bool".
	Kind string `json:"kind"`
	// Off/Count locate a numeric attribute's float stream in the blob:
	// Count values at byte offset Off.
	Off    int      `json:"off,omitempty"`
	Count  int      `json:"count,omitempty"`
	Dict   []string `json:"dict,omitempty"`
	Counts []int    `json:"counts,omitempty"`
	Falses int      `json:"falses,omitempty"`
	Trues  int      `json:"trues,omitempty"`
}

// batchHeaderDTO is the JSON header of a batchstats response body.
type batchHeaderDTO struct {
	Stats []batchStatDTO `json:"stats"`
}

// encodeBatch frames a batchstats body: a u32 little-endian header
// length, the JSON header, then the binary blob of float streams.
func encodeBatch(hdr batchHeaderDTO, blob []byte) ([]byte, error) {
	hj, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 4+len(hj)+len(blob))
	binary.LittleEndian.PutUint32(out, uint32(len(hj)))
	copy(out[4:], hj)
	copy(out[4+len(hj):], blob)
	return out, nil
}

// decodeBatch unframes a batchstats body.
func decodeBatch(data []byte) (batchHeaderDTO, []byte, error) {
	var hdr batchHeaderDTO
	if len(data) < 4 {
		return hdr, nil, fmt.Errorf("remote: batch body of %d bytes has no header", len(data))
	}
	hl := int(binary.LittleEndian.Uint32(data))
	if hl < 0 || 4+hl > len(data) {
		return hdr, nil, fmt.Errorf("remote: batch header of %d bytes overflows %d-byte body", hl, len(data))
	}
	if err := json.Unmarshal(data[4:4+hl], &hdr); err != nil {
		return hdr, nil, fmt.Errorf("remote: batch header: %w", err)
	}
	return hdr, data[4+hl:], nil
}

// partialsReqDTO is POST /shard/v1/partials.
type partialsReqDTO struct {
	Specs []partialSpecDTO `json:"specs"`
}

type partialSpecDTO struct {
	Col     int    `json:"col"`
	Lo      string `json:"lo,omitempty"`
	Hi      string `json:"hi,omitempty"`
	UseHist bool   `json:"useHist,omitempty"`
}

// gkEntryDTO is one GK sketch tuple on the wire.
type gkEntryDTO struct {
	V     string `json:"v"`
	G     int    `json:"g"`
	Delta int    `json:"d,omitempty"`
}

// gkDTO serializes a finalized GK sketch.
type gkDTO struct {
	Eps     string       `json:"eps"`
	N       int          `json:"n"`
	Entries []gkEntryDTO `json:"entries"`
}

// partialDTO is one column's mergeable bundle on the wire (local
// dictionary space for CatCounts).
type partialDTO struct {
	Rows       int      `json:"rows"`
	Nulls      int      `json:"nulls,omitempty"`
	Count      int      `json:"count,omitempty"`
	Sum        string   `json:"sum,omitempty"`
	Min        string   `json:"min,omitempty"`
	Max        string   `json:"max,omitempty"`
	HasMinMax  bool     `json:"hasMinMax,omitempty"`
	HistEdges  []string `json:"histEdges,omitempty"`
	HistCounts []int    `json:"histCounts,omitempty"`
	GK         *gkDTO   `json:"gk,omitempty"`
	CatCounts  []int    `json:"catCounts,omitempty"`
	Falses     int      `json:"falses,omitempty"`
	Trues      int      `json:"trues,omitempty"`
}

func partialToDTO(p *shard.ColumnPartial) partialDTO {
	d := partialDTO{
		Rows: p.Rows, Nulls: p.Nulls, Count: p.Count,
		Sum: fbits(p.Sum), HasMinMax: p.HasMinMax,
		CatCounts: p.CatCounts, Falses: p.Falses, Trues: p.Trues,
	}
	if p.HasMinMax {
		d.Min, d.Max = fbits(p.Min), fbits(p.Max)
	}
	if p.Hist != nil {
		d.HistEdges = make([]string, len(p.Hist.Edges))
		for i, e := range p.Hist.Edges {
			d.HistEdges[i] = fbits(e)
		}
		d.HistCounts = p.Hist.Counts
	}
	if p.Quantiles != nil {
		n, entries := p.Quantiles.Export()
		g := &gkDTO{Eps: fbits(p.Quantiles.Epsilon()), N: n, Entries: make([]gkEntryDTO, len(entries))}
		for i, e := range entries {
			g.Entries[i] = gkEntryDTO{V: fbits(e.V), G: e.G, Delta: e.Delta}
		}
		d.GK = g
	}
	return d
}

func partialFromDTO(d partialDTO) (*shard.ColumnPartial, error) {
	p := &shard.ColumnPartial{
		Rows: d.Rows, Nulls: d.Nulls, Count: d.Count,
		HasMinMax: d.HasMinMax,
		CatCounts: d.CatCounts, Falses: d.Falses, Trues: d.Trues,
	}
	var err error
	if d.Sum != "" {
		if p.Sum, err = parseFbits(d.Sum); err != nil {
			return nil, err
		}
	}
	if d.HasMinMax {
		if p.Min, err = parseFbits(d.Min); err != nil {
			return nil, err
		}
		if p.Max, err = parseFbits(d.Max); err != nil {
			return nil, err
		}
	}
	if len(d.HistEdges) > 0 {
		if len(d.HistCounts) != len(d.HistEdges)-1 {
			return nil, fmt.Errorf("remote: histogram of %d edges with %d counts", len(d.HistEdges), len(d.HistCounts))
		}
		edges := make([]float64, len(d.HistEdges))
		for i, s := range d.HistEdges {
			if edges[i], err = parseFbits(s); err != nil {
				return nil, err
			}
		}
		p.Hist = &stats.Histogram{Edges: edges, Counts: d.HistCounts}
	}
	if d.GK != nil {
		eps, err := parseFbits(d.GK.Eps)
		if err != nil {
			return nil, err
		}
		entries := make([]sketch.GKEntry, len(d.GK.Entries))
		for i, e := range d.GK.Entries {
			v, err := parseFbits(e.V)
			if err != nil {
				return nil, err
			}
			entries[i] = sketch.GKEntry{V: v, G: e.G, Delta: e.Delta}
		}
		if p.Quantiles, err = sketch.GKFromEntries(eps, d.GK.N, entries); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// healthDTO is GET /shard/v1/health.
type healthDTO struct {
	OK    bool   `json:"ok"`
	Table string `json:"table"`
	Rows  int    `json:"rows"`
}

// shardStatsDTO is GET /shard/v1/stats: the shard server's own
// counters, one RPC per scrape. Plain integers (no float bit patterns:
// counters are exact by construction) plus the server's release
// version, so a fleet rollup can spot skew.
type shardStatsDTO struct {
	Table         string `json:"table"`
	Rows          int    `json:"rows"`
	Requests      int64  `json:"requests"`
	BytesOut      int64  `json:"bytesOut"`
	StatComputes  int64  `json:"statComputes"`
	ChunkServes   int64  `json:"chunkServes"`
	Draining      bool   `json:"draining,omitempty"`
	BytesRead     int64  `json:"bytesRead,omitempty"`
	ChunksDecoded int64  `json:"chunksDecoded,omitempty"`
	CacheHits     int64  `json:"cacheHits,omitempty"`
	CacheBytes    int64  `json:"cacheBytes,omitempty"`
	Version       string `json:"version,omitempty"`
}

// encodeFloats packs values as little-endian IEEE-754 bits — the binary
// body of the values endpoint.
func encodeFloats(vals []float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return buf
}

// decodeFloats unpacks a little-endian float stream.
func decodeFloats(buf []byte) ([]float64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("remote: float stream of %d bytes is not a multiple of 8", len(buf))
	}
	vals := make([]float64, len(buf)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return vals, nil
}
