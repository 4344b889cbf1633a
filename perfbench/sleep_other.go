//go:build !linux

package main

import "time"

// sleepUntil is time.Sleep where nanosleep(2) is not available.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
