//go:build !unix

package main

import "time"

var processStart = time.Now()

// cpuTime is the time since the process started where getrusage(2) is
// not available.
func cpuTime() time.Duration { return time.Since(processStart) }
