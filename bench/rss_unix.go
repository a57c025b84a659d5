//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// peakRSSMiB is the process's peak resident set size from getrusage.
func peakRSSMiB() (float64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	kib := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kib /= 1024 // darwin reports bytes
	}
	return kib / 1024, true
}
