package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// host is the machine shape and provenance a result was measured under.
// Results from different shapes are not comparable.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the checkout's git HEAD, or "none" outside a git
	// checkout; SourceSHA256 digests the program's Go sources and module
	// files either way, so two results name the code they measured.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func hostInfo(root string) host {
	return host{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		Commit:       gitHead(root),
		SourceSHA256: sourceDigest(root),
	}
}

// sameShape reports whether two hosts can be compared, and why not.
func (h host) sameShape(o host) (bool, string) {
	switch {
	case h.NProc != o.NProc:
		return false, fmt.Sprintf("nproc %d vs %d", o.NProc, h.NProc)
	case h.GOMAXPROCS != o.GOMAXPROCS:
		return false, fmt.Sprintf("GOMAXPROCS %d vs %d", o.GOMAXPROCS, h.GOMAXPROCS)
	case h.CPUModel != o.CPUModel:
		return false, fmt.Sprintf("CPU %q vs %q", o.CPUModel, h.CPUModel)
	case h.GoVersion != o.GoVersion:
		return false, fmt.Sprintf("Go %s vs %s", o.GoVersion, h.GoVersion)
	}
	return true, ""
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

// gitHead resolves HEAD from a checkout's .git directory without running
// git; it returns "none" when root is not a git checkout.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go and go.mod file under root (skipping
// hidden directories such as the build directory) in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Type().IsRegular() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// compare prints the relative change of every metric of cur against a
// result written earlier with -out, or why the two are not comparable.
func compare(w io.Writer, cur *report, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var prev report
	if err := json.Unmarshal(b, &prev); err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	if ok, why := cur.Host.sameShape(prev.Host); !ok {
		fmt.Fprintf(w, "compare: %s is NOT COMPARABLE (host shape differs: %s)\n", path, why)
		return nil
	}
	if prev.Workload != cur.Workload {
		fmt.Fprintf(w, "compare: %s is NOT COMPARABLE (workload %s vs %s)\n", path, prev.Workload, cur.Workload)
		return nil
	}
	old := make(map[string]float64)
	for _, m := range prev.all() {
		old[m.Name] = m.Value
	}
	fmt.Fprintf(w, "compare against %s (commit %s, seed %d):\n", path, prev.Host.Commit, prev.Seed)
	for _, m := range cur.all() {
		if o, ok := old[m.Name]; ok && o != 0 {
			fmt.Fprintf(w, "  %-36s %14.4f -> %14.4f %-8s %+7.1f%%\n", m.Name, o, m.Value, m.Unit, 100*(m.Value/o-1))
		}
	}
	return nil
}
