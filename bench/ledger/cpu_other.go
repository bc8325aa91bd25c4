//go:build !unix

package main

import (
	"errors"
	"runtime"
	"time"
)

// cpuTime needs getrusage: the package builds here so that `go build ./...`
// does, but a run ends with this error instead of a cpu_ms_per_est of 0.
func cpuTime() (time.Duration, error) {
	return 0, errors.New("process CPU time is not available on " + runtime.GOOS)
}
