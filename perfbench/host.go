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

// host is the fingerprint recorded beside every result: figures from
// different machines, CPU counts or filesystems are not comparable.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	WorkFS     string `json:"workdir_fs"`
}

func fingerprint(workdir string) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		WorkFS:     fsType(workdir),
	}
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

// fsMagic names the statfs magic numbers of common Linux filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
	0x858458F6: "ramfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// resetPeakRSS starts a new peak-memory interval: it collects the garbage
// set-up left, returns it to the OS, and resets the kernel's resident-set
// high-water mark, so the peak that follows belongs to the measured window.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS. Where the
	// kernel refuses, the peak covers the process's whole life instead.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the resident-set high-water mark since resetPeakRSS.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
