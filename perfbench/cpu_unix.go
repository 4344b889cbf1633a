//go:build unix

package main

import (
	"syscall"
	"time"
)

// cpuTime returns the CPU time the process has used so far, user and
// system, over all its threads. On a paravirtualised guest the kernel
// leaves out the time the hypervisor gave to other machines (steal), so
// unlike wall time it does not grow when the host is busy.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
