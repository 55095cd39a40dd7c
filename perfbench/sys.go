package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// resetPeakRSS resets the kernel's peak resident set size (VmHWM) of this
// process, so the peak read after the measured loop excludes set-up.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status, in MiB (0 if unavailable).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// filesystem names the filesystem type holding path, from the longest
// matching mount point in /proc/self/mountinfo ("unknown" if unreadable).
func filesystem(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fsType := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// id parent major:minor root mountpoint opts... - fstype source superopts
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		fields, tail := strings.Fields(pre), strings.Fields(post)
		if !ok || len(fields) < 5 || len(tail) < 1 {
			continue
		}
		mp := fields[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fsType = len(mp), tail[0]
		}
	}
	return fsType
}
