package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// provenance ties a record to what produced it.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Revision   string `json:"revision"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Host       string `json:"host"`
}

func newProvenance(workload string, seed int64) provenance {
	return provenance{
		Workload:   workload,
		Seed:       seed,
		Revision:   revision(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Host:       hostFingerprint(),
	}
}

// revision is the VCS revision the binary was built from, with a
// "+dirty" suffix for uncommitted changes, or "unknown" outside a
// checkout with version control.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// hostFingerprint hashes what identifies the machine: its host name,
// OS, architecture and CPU count.
func hostFingerprint() string {
	host, _ := os.Hostname() // an unknown name still leaves the other fields
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%s/%s|%d", host, runtime.GOOS, runtime.GOARCH, runtime.NumCPU())))
	return hex.EncodeToString(h[:8])
}
