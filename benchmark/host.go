package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"fedguard/internal/tensor"
)

// host is the fingerprint recorded with every run, so two ledgers can be
// told apart before their numbers are compared.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernels    string `json:"kernels"` // "avx" or "purego"
	Commit     string `json:"commit,omitempty"`
}

func fingerprint() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Kernels:    "purego",
	}
	if tensor.HasVectorKernels() {
		h.Kernels = "avx"
	}
	return h
}

// gitCommit names the commit the ledger was taken at. Only the ledger
// asks: a workload run stays inside its checkout, which may not be a git
// repository at all.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
