package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// procCPU returns the CPU time all threads of the given processes have run
// so far, from each thread's schedstat (nanoseconds on the CPU). Like the
// thread CPU clock it excludes time the host took the CPU away.
func procCPU(pids []int) time.Duration {
	var total int64
	for _, pid := range pids {
		dir := filepath.Join("/proc", strconv.Itoa(pid), "task")
		ents, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name(), "schedstat"))
			if err != nil {
				continue
			}
			f, _, _ := strings.Cut(string(b), " ")
			if v, err := strconv.ParseInt(f, 10, 64); err == nil {
				total += v
			}
		}
	}
	return time.Duration(total)
}

// childPIDs lists the live processes whose parent is pid.
func childPIDs(pid int) []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range ents {
		p, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// Fields after the parenthesized command: state, ppid, ...
		s := string(b)
		i := strings.LastIndexByte(s, ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(s[i+1:])
		if len(f) > 1 && f[1] == strconv.Itoa(pid) {
			out = append(out, p)
		}
	}
	return out
}
