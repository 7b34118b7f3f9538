package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one wisync-server process the benchmark started. The
// server runs in its own process group, so stopping it also reaches the
// worker subprocesses it spawned.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *os.File
}

// becomeSubreaper makes orphaned descendants — the workers of a stopped
// server — children of this process instead of init, so stop can wait for
// every one of them.
func becomeSubreaper() error {
	const prSetChildSubreaper = 36
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_CHILD_SUBREAPER): %w", errno)
	}
	return nil
}

// startServer launches wisync-server from binDir on a free loopback port
// with the given isolation and waits until /readyz answers 200. Only the
// server is started: in proc mode it resolves its own worker.
func startServer(binDir, isolation, logPath string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	bin, err := filepath.Abs(filepath.Join(binDir, "wisync-server"))
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-isolation", isolation, "-workers", "2", "-grace", "2s")
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting wisync-server: %w", err)
	}
	s := &serverProc{
		cmd:  cmd,
		base: "http://" + addr,
		// One connection, reused: the workload is a single closed-loop
		// client.
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second, // a hung job fails the run instead of hanging it
		},
		log: logf,
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("wisync-server not ready after 60s (log: %s)", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down (SIGTERM, then SIGKILL after a grace period),
// kills whatever is left of its process group and waits until the group is
// gone.
func (s *serverProc) stop() {
	defer s.log.Close()
	s.client.CloseIdleConnections()
	pgid := s.cmd.Process.Pid
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it has already exited
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // exit status of a stopped server is not a result
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	// Workers outlive the server by a moment; as the subreaper this
	// process inherits them, so it can kill and reap the whole group.
	_ = syscall.Kill(-pgid, syscall.SIGKILL)
	for {
		var ws syscall.WaitStatus
		if _, err := syscall.Wait4(-pgid, &ws, 0, nil); err != syscall.EINTR && err != nil {
			break // ECHILD: nothing of the group is left
		}
	}
}

// peakRSS reads a live process's peak resident set (VmHWM) in MB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for process %d", pid)
}

// pids lists the server and its worker subprocesses.
func (s *serverProc) pids() []int {
	pid := s.cmd.Process.Pid
	return append([]int{pid}, childPIDs(pid)...)
}

// rowMsg is one NDJSON line of a sweep stream, as the server writes it.
type rowMsg struct {
	ID     string `json:"id"`
	Row    string `json:"row"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
	Done   bool   `json:"done"`
	Points int    `json:"points"`
	Errors int    `json:"errors"`
	Failed bool   `json:"failed"`
	Reason string `json:"reason"`
}

// jobReply is one job's delivered stream and its timings.
type jobReply struct {
	rows     []rowMsg // result rows, trailer excluded
	cached   int      // rows marked cached
	latency  time.Duration
	firstRow time.Duration // POST to the first row
	start    time.Time
}

// post submits one job and reads its stream to the trailer. Any departure
// from the stream contract — a non-200 answer, an error row, a failed or
// missing trailer, a trailer that disagrees with the rows — is an error.
func (s *serverProc) post(job []byte) (jobReply, error) {
	var r jobReply
	r.start = time.Now()
	resp, err := s.client.Post(s.base+"/sweep", "application/json", bytes.NewReader(job))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var trailer *rowMsg
	for sc.Scan() {
		var m rowMsg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			return r, fmt.Errorf("bad stream line %q: %v", sc.Text(), err)
		}
		if trailer != nil {
			return r, errors.New("line after the trailer")
		}
		switch {
		case m.Done || m.Failed:
			trailer = &m
		case m.Error != "":
			return r, fmt.Errorf("error row %s: %s", m.ID, m.Error)
		default:
			if len(r.rows) == 0 {
				r.firstRow = time.Since(r.start)
			}
			if m.Cached {
				r.cached++
			}
			r.rows = append(r.rows, m)
		}
	}
	r.latency = time.Since(r.start)
	if err := sc.Err(); err != nil {
		return r, fmt.Errorf("truncated stream: %w", err)
	}
	switch {
	case trailer == nil:
		return r, errors.New("truncated stream: no trailer")
	case trailer.Failed:
		return r, fmt.Errorf("failed stream: %s", trailer.Reason)
	case trailer.Points != len(r.rows) || trailer.Errors != 0:
		return r, fmt.Errorf("trailer says %d points, %d errors; stream had %d rows",
			trailer.Points, trailer.Errors, len(r.rows))
	}
	return r, nil
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	ErrorRows   uint64 `json:"error_rows"`
	Rejected429 uint64 `json:"rejected_429"`
	Cache       struct {
		Hits   uint64 `json:"Hits"`
		Misses uint64 `json:"Misses"`
	} `json:"cache"`
	Pool *struct {
		Restarts uint64 `json:"restarts"`
		Crashes  uint64 `json:"crashes"`
	} `json:"pool"`
}

func (s *serverProc) stats() (serverStats, error) {
	var st serverStats
	resp, err := s.client.Get(s.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
