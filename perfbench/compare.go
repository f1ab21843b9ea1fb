package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareMain reads two record files (one JSON record per line, as runs
// append them to .bench_build/records.jsonl) and prints, per workload
// and end-to-end metric, each side's median and quartiles and the
// relative delta of the medians. A delta counts as significant only
// when it exceeds the metric's bound; its sign then reads as "better"
// or "worse" by the metric's direction.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare OLD.jsonl NEW.jsonl")
	}
	a, err := readRecords(args[0])
	if err != nil {
		return err
	}
	b, err := readRecords(args[1])
	if err != nil {
		return err
	}
	return compare(a, b, w)
}

func readRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(strings.TrimPrefix(sc.Text(), "record "))
		if line == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Workload != "" && !r.Traced {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// values collects one metric's values per workload.
func values(rs []Record, metric string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range rs {
		if m, ok := r.Result.Metrics[metric]; ok {
			out[r.Workload] = append(out[r.Workload], m.Value)
		}
	}
	return out
}

func compare(a, b []Record, w io.Writer) error {
	workloads := map[string]bool{}
	for _, r := range append(append([]Record(nil), a...), b...) {
		workloads[r.Workload] = true
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-15s %-17s %5s %28s %5s %28s %9s  %s\n", "workload", "metric", "n_old", "old median [q1, q3]", "n_new", "new median [q1, q3]", "delta", "verdict")
	for _, wl := range names {
		for _, def := range endToEnd {
			va, vb := values(a, def.Name)[wl], values(b, def.Name)[wl]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			delta := (mb - ma) / ma
			fmt.Fprintf(w, "%-15s %-17s %5d %12.4g [%6.4g, %6.4g] %5d %12.4g [%6.4g, %6.4g] %+8.2f%%  %s\n",
				wl, def.Name, len(va), ma, a1, a3, len(vb), mb, b1, b3, 100*delta, verdict(def, delta))
		}
	}
	return nil
}

// verdict reads a relative delta of medians against the metric's bound.
func verdict(def metricDef, delta float64) string {
	if delta <= def.Bound && delta >= -def.Bound {
		return "~ (within bound)"
	}
	if (delta < 0) == (def.Better == "lower") {
		return "better"
	}
	return "worse"
}
