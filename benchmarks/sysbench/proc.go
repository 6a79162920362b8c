package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// procSample is the process-wide counters read at both ends of a
// measured phase.
type procSample struct {
	cpu        time.Duration // user + system
	writeBytes int64         // /proc/self/io write_bytes: bytes sent to the block layer
	alloc      uint64        // cumulative heap bytes allocated
	gcPause    time.Duration
}

func sampleProc() (procSample, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procSample{}, fmt.Errorf("getrusage: %w", err)
	}
	wb, err := procWriteBytes()
	if err != nil {
		return procSample{}, err
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		writeBytes: wb,
		alloc:      m.TotalAlloc,
		gcPause:    time.Duration(m.PauseTotalNs),
	}, nil
}

func procWriteBytes() (int64, error) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, fmt.Errorf("reading /proc/self/io: %w", err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("write_bytes: ")); ok {
			return strconv.ParseInt(string(bytes.TrimSpace(rest)), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/io has no write_bytes line")
}

// liveHeapMB is HeapAlloc after a forced collection: what the stores,
// caches and indexes still reachable cost.
func liveHeapMB() float64 {
	// Twice: the first cycle only queues finalizers and demotes
	// sync.Pool contents; the second frees them.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// quiesce flushes dirty pages left by set-up (or by whatever ran
// before this process) and collects garbage, so neither is charged to
// the measured phase.
func quiesce() {
	syscall.Sync()
	runtime.GC()
}

// fsyncProbe times n × (4 KiB write + Sync) in dir and returns the
// median in ms: the calibration that tells device drift from a program
// change in every push latency.
func fsyncProbe(dir string, n int) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		samples = append(samples, ms(time.Since(t0)))
	}
	return median(samples), nil
}

// dirUsage walks dir and returns its regular-file count and bytes.
func dirUsage(dir string) (files int, size int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return ierr
		}
		files++
		size += info.Size()
		return nil
	})
	return files, size, err
}

// onTmpfs reports whether dir lives on tmpfs, where fsync is free and
// every push latency means something else.
func onTmpfs(dir string) bool {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}
