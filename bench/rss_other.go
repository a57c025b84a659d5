//go:build !unix

package main

func peakRSSMiB() (float64, bool) { return 0, false }
