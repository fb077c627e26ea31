package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment says where numbers were taken, so two result files can be
// told apart before they are compared.
type environment struct {
	CPUModel          string `json:"cpu_model"`
	NProc             int    `json:"nproc"`
	HarnessGOMAXPROCS int    `json:"gomaxprocs_harness"`
	ServerGOMAXPROCS  int    `json:"gomaxprocs_servers"`
	Clients           int    `json:"clients"`
	GoVersion         string `json:"go_version"`
	Kernel            string `json:"kernel"`
	GitCommit         string `json:"git_commit"`
}

func readEnvironment(root string) environment {
	e := environment{
		CPUModel:          "unknown",
		NProc:             runtime.NumCPU(),
		HarnessGOMAXPROCS: runtime.GOMAXPROCS(0),
		// The servers are started without GOMAXPROCS set: they take every CPU.
		ServerGOMAXPROCS: runtime.NumCPU(),
		Clients:          clients,
		GoVersion:        runtime.Version(),
		Kernel:           "unknown",
		GitCommit:        "unknown", // a checkout without .git has none
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(b))
	}
	return e
}
