package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks the calling thread in nanosleep(2) until t, which
// wakes within tens of microseconds. Spinning instead would keep the
// runtime from polling the network while the process waits.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep goes round again
	}
}
