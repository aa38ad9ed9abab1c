package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// ledgerPath is the committed trajectory: one JSON line per recorded set.
var ledgerPath = filepath.Join("perf", "history", "ledger.jsonl")

// machine is the fingerprint a ledger line is keyed by, next to the commit:
// host-time numbers from different machines are not comparable.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
}

func (m machine) String() string {
	return fmt.Sprintf("%s x%d %s GOMAXPROCS=%d", m.CPU, m.NumCPU, m.GoVersion, m.GOMAXPROCS)
}

func fingerprint() machine {
	m := machine{CPU: "unknown", NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return m
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			m.CPU = strings.TrimSpace(v)
			break
		}
	}
	return m
}

// commitHash is the checkout's HEAD ("unknown" outside a git work tree, as
// in the driver's checkouts; "-dirty" is appended when tracked files differ).
func commitHash() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	hash := strings.TrimSpace(string(out))
	if err := exec.Command("git", "diff", "--quiet", "HEAD").Run(); err != nil {
		hash += "-dirty"
	}
	return hash
}

// appendLedger adds the set to the ledger as one line.
func appendLedger(set resultSet) error {
	line, err := json.Marshal(set)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(ledgerPath), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(ledgerPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
