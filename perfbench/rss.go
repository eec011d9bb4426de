package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// prepareOp readies the process for one timed operation: a forced GC, so
// one operation's garbage is not collected on another's clock, then a
// reset of the kernel's peak-RSS count (VmHWM) to the current resident
// set.
func prepareOp() error {
	runtime.GC()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set since prepareOp, plus the
// peak of its largest finished child (the kernel keeps neither a sum nor
// a per-interval peak for children), in MB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			var kids syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids); err != nil {
				return 0, err
			}
			return float64(kib+kids.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
