package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Machine identifies where and on what code a run was measured, so
// results from different boxes compare as ratios of CalibrationMs.
type Machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	// SourceDigest hashes the checkout's Go sources and go.mod files: it
	// names the code under test where no git metadata exists.
	SourceDigest string `json:"source_digest"`
	// CalibrationMs is the median time of a fixed integer loop.
	CalibrationMs float64 `json:"calibration_ms"`
}

func machine() Machine {
	return Machine{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		GitRev:        gitRev(),
		SourceDigest:  sourceDigest("."),
		CalibrationMs: calibrate(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRev reports the VCS revision stamped into the binary, else asks
// git, else "unknown" (a checkout without git metadata).
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go and go.mod file under root (relative
// path and content, in walk order), skipping dot-directories.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		h.Write([]byte(p))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// calibrationSink keeps the calibration loop's result observable.
var calibrationSink uint64

// calibrate times a fixed xorshift/multiply loop three times and
// returns the median in milliseconds.
func calibrate() float64 {
	var ts []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 30_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x *= 0x9E3779B97F4A7C15
		}
		calibrationSink += x
		ts = append(ts, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ts)
}
