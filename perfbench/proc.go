package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"syscall"
	"time"
)

// procRun is one finished child process.
type procRun struct {
	stdout []byte
	wall   time.Duration
	rssMB  float64 // peak resident memory
	err    error   // start failure, non-zero exit, or kill at the deadline
}

// runProc runs a binary to completion and measures it. The child's standard
// error passes through to ours.
func runProc(ctx context.Context, bin string, args ...string) procRun {
	cmd := exec.CommandContext(ctx, bin, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	err := cmd.Run()
	p := procRun{stdout: out.Bytes(), wall: time.Since(start), rssMB: peakRSS(cmd.ProcessState)}
	if err != nil {
		p.err = fmt.Errorf("%s: %w", bin, err)
	}
	return p
}

// peakRSS returns an exited child's peak resident memory in MB.
func peakRSS(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// cpuSeconds returns the user plus system CPU time of this process and of
// its waited-for children.
func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		}
	}
	return total
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
