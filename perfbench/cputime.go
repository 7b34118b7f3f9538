package main

import (
	"syscall"
	"time"
	"unsafe"
)

const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

// cpuClock reads one of the kernel's CPU-time clocks. CPU clocks count the
// time a thread actually ran: wall time minus the stretches the host took
// the CPU away (steal, preemption), which on a shared host come in quanta
// of up to tens of milliseconds.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// threadCPU reads the calling OS thread's CPU clock. The benchmark locks
// its measuring goroutine to one thread, so differences of two readings
// are the time that thread ran.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTimeID) }

// processCPU reads the CPU clock of the whole process: every thread,
// including the Go collector's workers.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }
