package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Runtime counters read at both ends of a measured interval.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

// snapshot is the process state at one instant.
type snapshot struct {
	wall   time.Time
	cpuS   float64 // user + system CPU of the whole process
	host   hostCPU
	values [4]float64
}

func takeSnapshot() snapshot {
	s := snapshot{wall: time.Now(), cpuS: processCPU(), host: readHostCPU()}
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ms[i].Name = name
	}
	metrics.Read(ms)
	for i, m := range ms {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			s.values[i] = float64(m.Value.Uint64())
		case metrics.KindFloat64:
			s.values[i] = m.Value.Float64()
		}
	}
	return s
}

// interval is what one stretch of fixed work cost the process.
type interval struct {
	wallS        float64
	cpuS         float64
	hostBusyS    float64 // CPU time the host's guest ran, all CPUs
	stealS       float64 // CPU time the hypervisor took from runnable CPUs
	allocBytes   float64
	allocObjects float64
	gcCPUS       float64
	gcCycles     float64
}

func since(a snapshot) interval {
	b := takeSnapshot()
	return interval{
		wallS:        b.wall.Sub(a.wall).Seconds(),
		cpuS:         b.cpuS - a.cpuS,
		hostBusyS:    b.host.busy - a.host.busy,
		stealS:       b.host.steal - a.host.steal,
		allocBytes:   b.values[0] - a.values[0],
		allocObjects: b.values[1] - a.values[1],
		gcCPUS:       b.values[2] - a.values[2],
		gcCycles:     b.values[3] - a.values[3],
	}
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostCPU is the aggregate cpu line of /proc/stat in seconds: the time
// the guest's CPUs were busy, and the time the hypervisor stole from them
// while they were runnable. Both read 0 where the file is unreadable.
type hostCPU struct{ busy, steal float64 }

func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t [8]float64 // user nice system idle iowait irq softirq steal
		for i := range t {
			v, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				return hostCPU{}
			}
			t[i] = v / 100 // USER_HZ
		}
		return hostCPU{busy: t[0] + t[1] + t[2] + t[5] + t[6], steal: t[7]}
	}
	return hostCPU{}
}

// runShare is the share of its runnable CPU time the guest actually got
// over the interval: busy / (busy + steal), 1 when nothing was stolen.
// On a shared host the hypervisor's steal stretches every wall-clock
// reading; a reading times this share is what the same work takes when
// the CPUs it asked for are its own.
func (iv interval) runShare() float64 {
	if iv.stealS <= 0 || iv.hostBusyS <= 0 {
		return 1
	}
	return iv.hostBusyS / (iv.hostBusyS + iv.stealS)
}

// hostInfo is printed beside the metrics of every run and never gated.
type hostInfo struct {
	StealS     float64 `json:"steal_s"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
}

func newHostInfo(steal float64) hostInfo {
	return hostInfo{
		StealS:     steal,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// quantile is the linear-interpolation quantile of vs (q in [0,1]).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }
