package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// commit is stamped by run.sh (-ldflags -X main.commit=...).
var commit = "unknown"

// hostInfo is the metadata printed with every result, so a number can
// be traced back to the machine and build that produced it.
type hostInfo struct {
	CPU        string `json:"cpu"`
	CPUFlags   string `json:"cpu_flags"`
	SIMD       string `json:"simd"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func readHost(seed int64) hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		SIMD:       simdLevel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit,
		Seed:       seed,
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			h.CPU = strings.TrimSpace(val)
		case "flags":
			var keep []string
			for _, fl := range strings.Fields(val) {
				switch fl {
				case "fma", "avx2", "avx512f":
					keep = append(keep, fl)
				}
			}
			h.CPUFlags = strings.Join(keep, " ")
			return h
		}
	}
	return h
}

// jiffies reads the aggregate line of /proc/stat: all CPU time the
// guest has been accounted, and the part of it the hypervisor gave to
// someone else. Zeros where /proc/stat is missing.
func jiffies() (total, steal uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue // "cpu"
		}
		v, _ := strconv.ParseUint(f, 10, 64)
		if i <= 8 { // user … steal; guest time is already inside user
			total += v
		}
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// cpuTime is the user+system CPU time this process has consumed.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// meter measures one timed interval: wall clock, CPU, allocation and GC.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
	m0   runtime.MemStats

	wall, cpu      time.Duration
	allocB, allocN uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.m0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall = time.Since(m.t0)
	m.cpu = cpuTime() - m.cpu0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	m.allocB = m1.TotalAlloc - m.m0.TotalAlloc
	m.allocN = m1.Mallocs - m.m0.Mallocs
	m.gcCycles = m1.NumGC - m.m0.NumGC
	m.gcPause = time.Duration(m1.PauseTotalNs - m.m0.PauseTotalNs)
}
