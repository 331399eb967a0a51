package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// hostStamp records where a result was measured. Results from different
// stamps are not comparable.
type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	Arch       string `json:"arch"`
}

func currentHost() hostStamp {
	h := hostStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		CPU:        cpuModel(),
		Kernel:     kernelRelease(),
		Arch:       runtime.GOOS + "/" + runtime.GOARCH,
	}
	// The build stamps the commit when it runs inside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

func (h hostStamp) String() string {
	commit := h.Commit
	if len(commit) > 12 {
		commit = commit[:12]
	}
	if h.Dirty {
		commit += "+dirty"
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s %s commit=%s cpu=%q kernel=%s",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Arch, commit, h.CPU, h.Kernel)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}
