package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"chaffmec/internal/rng"
)

// stamp identifies the host and build a run measured on. Two runs are
// comparable only when their stamps agree (tune.block aside, which is
// the calibration's own finding and is recorded, not pinned).
type stamp struct {
	GOARCH     string `json:"goarch"`
	GOAMD64    string `json:"goamd64,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Stream     string `json:"rng_stream"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	TuneBlock  int    `json:"tune.block"`
}

func hostStamp(workload string, seed int64) stamp {
	s := stamp{
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Stream:     rng.StreamVersion,
		Workload:   workload,
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "GOAMD64" {
				s.GOAMD64 = kv.Value
			}
		}
	}
	return s
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
