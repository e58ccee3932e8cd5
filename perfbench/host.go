package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// usage is a snapshot of the process's resource use.
type usage struct {
	cpu    float64 // user+sys CPU seconds
	maxRSS float64 // peak resident set, MiB
	nivcsw int64   // involuntary context switches
}

func getUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF on a valid struct cannot fail on Linux.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		cpu:    tv(ru.Utime) + tv(ru.Stime),
		maxRSS: float64(ru.Maxrss) / 1024, // Linux reports KiB
		nivcsw: ru.Nivcsw,
	}
}

// userHZ is the unit of /proc/stat's CPU columns; it is 100 on every
// Linux architecture Go supports.
const userHZ = 100

// stealSeconds returns the host's cumulative steal time over all CPUs:
// time a hypervisor ran someone else while this machine's CPUs wanted
// to run. ok is false where /proc/stat is unreadable.
func stealSeconds() (seconds float64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, false
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	steal, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(steal) / userHZ, true
}
