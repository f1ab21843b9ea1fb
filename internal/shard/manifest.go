// Package shard implements the sharded atlas: one logical table split
// across several .atl segment stores (see internal/colstore), described
// by a small versioned JSON manifest, and reassembled at open into a
// combined chunk-aware table plus per-shard views that share its
// storage.
//
// Sharding is the system's scaling unit. The cartography pipeline
// decomposes cleanly per row range — scans, partition bitmaps and
// contingency counts are all row-local — so a table split into shards
// fans those passes out across a worker pool and reduces the results
// through mergeable partial statistics (counts, category-count vectors,
// sorted-run merges, histograms and GK sketches; see partial.go).
// Explorations over a shard set return maps byte-identical to the
// unsharded table at any shard count and any parallelism.
//
// # Manifest format (version 3)
//
// A manifest is a JSON object, conventionally stored next to its shard
// files with an ".atlm" extension:
//
//	{
//	  "version": 3,
//	  "table": "census",            // logical table name
//	  "partitioning": "range",      // "range" or "hash"
//	  "key": "cid",                 // hash partitioning key (hash only)
//	  "chunk_size": 65536,          // rows per chunk in every shard
//	  "rows": 1000000,              // total rows across shards
//	  "columns": [                  // the shared schema
//	    {"name": "age", "type": "int64"},
//	    {"name": "education", "type": "string"}
//	  ],
//	  "shards": [
//	    {"file": "census.00000.atl", "rows": 131072,
//	     "stats": [                 // one entry per column
//	       {"min": 17, "max": 90, "has_min_max": true, "nulls": 12},
//	       {"nulls": 0, "cat_bits": "AAEC...iA=="}
//	     ]},
//	    {"file": "http://10.0.0.7:8093", "rows": 131072,
//	     "replicas": ["http://10.0.0.8:8093"],   // failover peers
//	     "stats": [...]}
//	  ]
//	}
//
// Shard file paths are relative to the manifest's directory. Range
// partitioning preserves row order — the concatenation of the shards in
// manifest order is exactly the original table — and aligns every shard
// boundary to a chunk boundary, so the reassembled table stitches the
// shards' zone maps without rescanning. Hash partitioning routes rows by
// a key column, which keeps all rows of one key in one shard (the layout
// FK-join and per-key workloads want) at the cost of reordering rows.
//
// The per-shard column statistics are the shard-file pruning index:
// numeric min/max in the engine's float comparison space, NULL counts,
// and — for categorical columns — a 256-bit hash bitset of the values
// present in the shard (bit fnv1a(value) mod 256). A selective
// exploration consults them to skip whole shard files before opening
// them; together with the schema they also let a deferred open build a
// working (coarser) zone map layer without touching any shard file.
// Both are mandatory.
//
// A remote shard entry may list additional http(s):// URLs in
// "replicas", each serving the same immutable shard file. The remote
// client rotates to a replica when the primary trips its health-driven
// circuit breaker, so a single peer dying mid-exploration degrades to a
// failover instead of an error. Replicas are only meaningful on remote
// shards.
//
// Only version 3 is read. Older manifests (v1 had no schema or
// statistics, v2 no replicas) fail with ErrOldManifest: re-ingest the
// source data.
package shard

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/query"
	"repro/internal/storage"
)

// Partitioning names a row-routing strategy.
type Partitioning string

const (
	// PartitionRange splits rows by position: shard i holds a contiguous,
	// chunk-aligned row range, in table order.
	PartitionRange Partitioning = "range"
	// PartitionHash routes each row by a hash of its key column, keeping
	// equal keys co-resident.
	PartitionHash Partitioning = "hash"
)

// ManifestVersion is the manifest format version, the only one written
// or read. Version 2 added the schema and per-shard column statistics;
// version 3 added per-shard replica locations.
const ManifestVersion = 3

// ErrOldManifest reports a manifest written in a format version older
// than ManifestVersion. Re-ingest the source data to upgrade it.
var ErrOldManifest = errors.New("shard: manifest version predates v3; re-ingest the source data")

// CatBitsSize is the byte size of a categorical hash bitset (256 bits).
const CatBitsSize = 32

// ColumnSchema names one column of the sharded table in the manifest.
type ColumnSchema struct {
	Name string `json:"name"`
	// Type is the storage type: "int64", "float64", "string" or "bool".
	Type string `json:"type"`
}

// ColumnStats is one shard's pruning statistics for one column.
type ColumnStats struct {
	// Min/Max bound the shard's non-null values in the engine's float
	// comparison space (Int64 values widened), valid when HasMinMax.
	Min       float64 `json:"min,omitempty"`
	Max       float64 `json:"max,omitempty"`
	HasMinMax bool    `json:"has_min_max,omitempty"`
	// Nulls is the shard's NULL count in this column.
	Nulls int `json:"nulls"`
	// CatBits is the base64 256-bit hash bitset of the categorical
	// values present in the shard (bit CatBitsHash(v) set for every
	// distinct value v); empty when untracked.
	CatBits string `json:"cat_bits,omitempty"`
}

// ShardFile describes one shard segment of a manifest.
type ShardFile struct {
	// File is the shard's .atl path, relative to the manifest directory.
	File string `json:"file"`
	// Rows is the shard's row count, checked against the opened file.
	Rows int `json:"rows"`
	// Stats holds one ColumnStats per schema column.
	Stats []ColumnStats `json:"stats"`
	// Replicas lists additional http(s):// locations serving the same
	// shard. Only valid when File is itself a remote location; the
	// remote client fails over to them when File's server misbehaves.
	Replicas []string `json:"replicas,omitempty"`
}

// Locations returns the shard's primary location followed by its
// replicas — the dial order of the remote client.
func (sf *ShardFile) Locations() []string {
	locs := make([]string, 0, 1+len(sf.Replicas))
	locs = append(locs, sf.File)
	locs = append(locs, sf.Replicas...)
	return locs
}

// Manifest describes a sharded table: the partitioning that produced it
// and the shard files composing it.
type Manifest struct {
	Version      int          `json:"version"`
	Table        string       `json:"table"`
	Partitioning Partitioning `json:"partitioning"`
	// Key is the hash partitioning column; empty for range partitioning.
	Key       string `json:"key,omitempty"`
	ChunkSize int    `json:"chunk_size"`
	Rows      int    `json:"rows"`
	// Columns is the shared schema.
	Columns []ColumnSchema `json:"columns"`
	Shards  []ShardFile    `json:"shards"`
}

// Schema reconstructs the storage schema the manifest declares.
func (m *Manifest) Schema() (*storage.Schema, error) {
	fields := make([]storage.Field, len(m.Columns))
	for i, c := range m.Columns {
		typ, err := parseColumnType(c.Type)
		if err != nil {
			return nil, fmt.Errorf("shard: column %q: %w", c.Name, err)
		}
		fields[i] = storage.Field{Name: c.Name, Type: typ}
	}
	return storage.NewSchema(fields...)
}

func parseColumnType(s string) (storage.DataType, error) {
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
		return 0, fmt.Errorf("unknown column type %q", s)
	}
}

func columnTypeName(t storage.DataType) string {
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

// CatBitsHash returns the bit index of a categorical value in a shard's
// 256-bit category bitset.
func CatBitsHash(v string) int {
	h := fnv.New32a()
	h.Write([]byte(v))
	return int(h.Sum32() % (CatBitsSize * 8))
}

// catBitsDecode unpacks a base64 bitset, or nil when absent/invalid.
func catBitsDecode(s string) []byte {
	if s == "" {
		return nil
	}
	b, err := base64.StdEncoding.DecodeString(s)
	if err != nil || len(b) != CatBitsSize {
		return nil
	}
	return b
}

func (m *Manifest) validate() error {
	switch {
	case m.Version >= 1 && m.Version < ManifestVersion:
		return fmt.Errorf("%w (manifest is version %d)", ErrOldManifest, m.Version)
	case m.Version != ManifestVersion:
		return fmt.Errorf("shard: unsupported manifest version %d (this reader handles %d)", m.Version, ManifestVersion)
	}
	if len(m.Columns) == 0 {
		return fmt.Errorf("shard: manifest declares no columns")
	}
	if _, err := m.Schema(); err != nil {
		return err
	}
	for i, sf := range m.Shards {
		if len(sf.Stats) != len(m.Columns) {
			return fmt.Errorf("shard: shard %d has %d column stats for %d columns", i, len(sf.Stats), len(m.Columns))
		}
	}
	switch m.Partitioning {
	case PartitionRange:
		if m.Key != "" {
			return fmt.Errorf("shard: range manifest must not name a key column")
		}
	case PartitionHash:
		if m.Key == "" {
			return fmt.Errorf("shard: hash manifest must name a key column")
		}
	default:
		return fmt.Errorf("shard: unknown partitioning %q", m.Partitioning)
	}
	if m.ChunkSize <= 0 || m.ChunkSize%64 != 0 {
		return fmt.Errorf("shard: invalid chunk size %d", m.ChunkSize)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard: manifest lists no shards")
	}
	sum := 0
	for i, sf := range m.Shards {
		if sf.File == "" {
			return fmt.Errorf("shard: shard %d has no file", i)
		}
		if !IsRemoteLocation(sf.File) && filepath.IsAbs(sf.File) {
			return fmt.Errorf("shard: shard file %q must be relative to the manifest (or an http(s):// location)", sf.File)
		}
		if sf.Rows < 0 {
			return fmt.Errorf("shard: shard %d has negative row count %d", i, sf.Rows)
		}
		if len(sf.Replicas) > 0 {
			if !IsRemoteLocation(sf.File) {
				return fmt.Errorf("shard: shard %d lists replicas for local file %q (replicas need a remote primary)", i, sf.File)
			}
			for _, r := range sf.Replicas {
				if !IsRemoteLocation(r) {
					return fmt.Errorf("shard: shard %d replica %q is not an http(s):// location", i, r)
				}
			}
		}
		sum += sf.Rows
	}
	if sum != m.Rows {
		return fmt.Errorf("shard: shard rows sum to %d, manifest claims %d", sum, m.Rows)
	}
	return nil
}

// ShardMayMatch reports whether predicate p could select any row of
// shard i, judged from the manifest's per-shard statistics alone — the
// shard-file pruning test that runs before any shard file is opened. It
// is conservative: unknown columns and untracked predicate shapes
// report true.
func (m *Manifest) ShardMayMatch(i int, p query.Predicate) bool {
	if i < 0 || i >= len(m.Shards) {
		return true
	}
	ci := -1
	for c, col := range m.Columns {
		if col.Name == p.Attr {
			ci = c
			break
		}
	}
	sf := m.Shards[i]
	if ci < 0 {
		return true
	}
	st := sf.Stats[ci]
	if sf.Rows > 0 && st.Nulls == sf.Rows {
		// All-NULL shard column: NULL rows never match any predicate.
		return false
	}
	switch p.Kind {
	case query.Range:
		if !st.HasMinMax {
			return true
		}
		// Same interval test as the engine's zone pruning, in the same
		// float comparison space.
		if p.Hi < st.Min || p.Lo > st.Max ||
			(p.Hi == st.Min && !p.HiIncl) || (p.Lo == st.Max && !p.LoIncl) {
			return false
		}
		return true
	case query.In:
		bits := catBitsDecode(st.CatBits)
		if bits == nil {
			return true
		}
		for _, v := range p.Values {
			b := CatBitsHash(v)
			if bits[b/8]&(1<<uint(b%8)) != 0 {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// ReadManifest parses and validates a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("shard: %s: %w", path, err)
	}
	return m, nil
}

// parseManifest decodes and validates manifest bytes.
func parseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// RemoteManifest returns a copy of m with shard i served from urls[i]
// instead of its local file — the coordinator-side manifest of a remote
// deployment, where each URL names an atlasd running with -serve-shard
// on that shard's .atl file. An entry may name several replicas
// separated by '|' ("http://a:8093|http://b:8093"): the first is the
// primary, the rest are failover peers serving the same shard. Rows,
// statistics and ordering carry over unchanged, so shard-file pruning
// and deferred opens keep working; an empty urls[i] keeps shard i local
// (mixed deployments are fine).
func RemoteManifest(m *Manifest, urls []string) (*Manifest, error) {
	if len(urls) != len(m.Shards) {
		return nil, fmt.Errorf("shard: %d URLs for %d shards", len(urls), len(m.Shards))
	}
	out := *m
	out.Version = ManifestVersion
	out.Shards = append([]ShardFile(nil), m.Shards...)
	for i, entry := range urls {
		if entry == "" {
			continue
		}
		var locs []string
		for _, u := range strings.Split(entry, "|") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !IsRemoteLocation(u) {
				return nil, fmt.Errorf("shard: shard %d location %q is not an http(s):// URL", i, u)
			}
			locs = append(locs, strings.TrimRight(u, "/"))
		}
		if len(locs) == 0 {
			continue
		}
		out.Shards[i].File = locs[0]
		out.Shards[i].Replicas = locs[1:]
	}
	if err := out.validate(); err != nil {
		return nil, err
	}
	return &out, nil
}

// WriteManifestFile serializes a manifest to path (atomically, via a
// temporary sibling) — exported for remote-manifest tooling.
func WriteManifestFile(path string, m *Manifest) error {
	if err := m.validate(); err != nil {
		return err
	}
	return writeManifest(path, m)
}

// writeManifest serializes m to path via a temporary sibling, so a
// failed write never leaves a truncated manifest behind.
func writeManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// IsManifest sniffs whether path holds a shard manifest rather than a
// single .atl store: manifests are JSON objects, stores start with the
// "ATLS" magic. It lets every -store flag accept either.
func IsManifest(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var buf [16]byte
	n, _ := f.Read(buf[:])
	for _, b := range buf[:n] {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
	return false
}
