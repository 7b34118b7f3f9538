package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wisync/internal/harness"
)

// The proc-isolation tests re-exec this test binary as the worker
// subprocess, the same pattern internal/workerpool uses: TestMain diverts
// to a worker loop when the helper env var is set.
//
//	serve     the real harness.ServeWire loop (rows byte-identical)
//	selective ServeWire, except seed 666 crashes the process mid-point
const serverWorkerHelperEnv = "WISYNC_SERVER_WORKER_HELPER"

func TestMain(m *testing.M) {
	switch os.Getenv(serverWorkerHelperEnv) {
	case "":
		os.Exit(m.Run())
	case "serve":
		if err := harness.ServeWire(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	case "selective":
		dec := json.NewDecoder(os.Stdin)
		for {
			var req harness.WireRequest
			if err := dec.Decode(&req); err != nil {
				os.Exit(0)
			}
			if req.Spec.Seed == 666 {
				os.Exit(2)
			}
			resp := harness.WireResponse{Seq: req.Seq}
			if row, err := req.Spec.Run(); err != nil {
				resp.Err, resp.Error = true, err.Error()
			} else {
				resp.Row = row
			}
			if err := harness.EncodeWire(os.Stdout, resp); err != nil {
				os.Exit(0)
			}
		}
	}
}

// procOptions returns serverOptions running points in subprocesses of this
// test binary, diverted into the given helper mode.
func procOptions(t *testing.T, mode string, workers int) serverOptions {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	return serverOptions{
		Workers:       workers,
		Isolation:     "proc",
		WorkerCommand: []string{exe},
		WorkerEnv:     []string{serverWorkerHelperEnv + "=" + mode},
		PointTimeout:  time.Minute,
	}
}

func getStats(t *testing.T, url string) statsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	return st
}

// TestServerProcIsolationGolden pins the isolation invariant over HTTP:
// with every point running in a worker subprocess, the golden matrix
// streams back byte-identical to testdata/golden.tsv, and /stats carries
// the pool counters.
func TestServerProcIsolationGolden(t *testing.T) {
	golden := loadGolden(t)
	_, ts := newTestServer(t, procOptions(t, "serve", 2))
	body := `{"workload":"tightloop","kinds":["Baseline","Baseline+","WiSyncNoT","WiSync"],"cores":[16,64],"seeds":[1]}`
	rows, done, status := postJob(t, ts.URL, body)
	if status != http.StatusOK || done.Errors != 0 {
		t.Fatalf("proc job: status=%d done=%+v", status, done)
	}
	for _, m := range rows {
		if m.Row != golden[m.ID] {
			t.Fatalf("subprocess row drifted from golden:\ngot:  %s\nwant: %s", m.Row, golden[m.ID])
		}
	}
	st := getStats(t, ts.URL)
	if st.Isolation != "proc" || st.Pool == nil {
		t.Fatalf("/stats missing pool in proc mode: %+v", st)
	}
	if st.Pool.Points != uint64(len(rows)) || st.Pool.Crashes != 0 {
		t.Fatalf("pool stats: %+v", st.Pool)
	}
}

// TestServerProcCrashedRow pins crash containment end to end: a point that
// kills its worker subprocess becomes one structured crashed row, the rest
// of the job (and the job's done trailer) is unharmed, and the restart is
// visible in /stats.
func TestServerProcCrashedRow(t *testing.T) {
	_, ts := newTestServer(t, procOptions(t, "selective", 1))
	body := `{"workload":"tightloop","kinds":["WiSync"],"cores":[16],"seeds":[1,666,42]}`
	rows, done, status := postJob(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(rows) != 3 || done.Errors != 1 {
		t.Fatalf("rows=%d done=%+v", len(rows), done)
	}
	var crashed int
	for _, m := range rows {
		if m.Crashed {
			crashed++
			if !strings.Contains(m.Error, "worker") {
				t.Fatalf("crashed row lacks a structured error: %+v", m)
			}
		} else if m.Error != "" {
			t.Fatalf("non-crash error row: %+v", m)
		} else if m.Row == "" {
			t.Fatalf("healthy row empty: %+v", m)
		}
	}
	if crashed != 1 {
		t.Fatalf("crashed rows = %d, want 1", crashed)
	}
	st := getStats(t, ts.URL)
	if st.Pool == nil || st.Pool.Crashes != 1 || st.Pool.Restarts < 1 {
		t.Fatalf("pool stats after crash: %+v", st.Pool)
	}
	// The server survives: the crashing seed is recomputable-free but the
	// healthy part of the matrix still serves (now from cache).
	rows2, done2, _ := postJob(t, ts.URL, `{"workload":"tightloop","kinds":["WiSync"],"cores":[16],"seeds":[1,42]}`)
	if done2.Errors != 0 || done2.Hits != 2 {
		t.Fatalf("healthy resubmit: done=%+v rows=%+v", done2, rows2)
	}
}

// TestServerWarmRestart pins the one crash-recovery path: a server with a
// durable cache computes part of a job and goes away; a second server over
// the same directory preloads those points, is ready at once, and serves
// the whole job with only the missing points recomputed, byte-identical to
// golden.
func TestServerWarmRestart(t *testing.T) {
	golden := loadGolden(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")

	// The first process finishes two of the job's four points, then stops.
	s, ts := newTestServer(t, serverOptions{Workers: 2, CacheDir: cacheDir})
	_, done, status := postJob(t, ts.URL, `{"workload":"tightloop","kinds":["Baseline","WiSync"],"cores":[16],"seeds":[1]}`)
	if status != http.StatusOK || done.Errors != 0 || done.Points != 2 {
		t.Fatalf("partial job: status=%d done=%+v", status, done)
	}
	ts.Close()
	s.Close()

	_, ts2 := newTestServer(t, serverOptions{Workers: 2, CacheDir: cacheDir})
	resp, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after restart: status %d, want 200", resp.StatusCode)
	}
	if st := getStats(t, ts2.URL); st.Cache.Preloaded != 2 {
		t.Fatalf("restart preloaded %d entries, want 2: %+v", st.Cache.Preloaded, st.Cache)
	}

	rows, done, status := postJob(t, ts2.URL, `{"workload":"tightloop","kinds":["Baseline","WiSync"],"cores":[16,64],"seeds":[1]}`)
	if status != http.StatusOK || done.Errors != 0 || done.Points != 4 || done.Hits != 2 {
		t.Fatalf("full job after restart: status=%d done=%+v", status, done)
	}
	for _, m := range rows {
		if m.Row != golden[m.ID] {
			t.Fatalf("row after restart drifted:\ngot:  %s\nwant: %s", m.Row, golden[m.ID])
		}
		if m.Cached != strings.Contains(m.ID, "/16c/") {
			t.Fatalf("row %s cached=%v: only the 16-core points were computed before the restart", m.ID, m.Cached)
		}
	}
	if st := getStats(t, ts2.URL); st.Cache.Misses != 2 {
		t.Fatalf("restart recomputed %d points, want 2: %+v", st.Cache.Misses, st.Cache)
	}
}

// TestServerFailedTrailer pins the trailer guarantee: when an internal
// fault cuts a stream short with the client still connected, the stream
// ends with one {"failed": true} trailer instead of going silent — the
// signal wisync-load uses to tell a server fault from a truncated
// (server-death) stream.
func TestServerFailedTrailer(t *testing.T) {
	prev := streamFailHook
	streamFailHook = func(i int) error {
		if i == 1 {
			return fmt.Errorf("injected stream fault")
		}
		return nil
	}
	defer func() { streamFailHook = prev }()

	_, ts := newTestServer(t, serverOptions{Workers: 1})
	resp, err := http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"workload":"tightloop","kinds":["Baseline","WiSync"],"cores":[16],"seeds":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msgs []rowMsg
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var m rowMsg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		msgs = append(msgs, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if len(msgs) != 2 {
		t.Fatalf("stream: %+v", msgs)
	}
	if msgs[0].Row == "" || msgs[0].Error != "" {
		t.Fatalf("first row: %+v", msgs[0])
	}
	last := msgs[len(msgs)-1]
	if !last.Failed || last.Done || !strings.Contains(last.Reason, "injected stream fault") {
		t.Fatalf("missing failed trailer: %+v", last)
	}
}
