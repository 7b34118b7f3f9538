package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wisync/internal/channel"
	"wisync/internal/config"
	"wisync/internal/fault"
	"wisync/internal/harness"
	"wisync/internal/wireless"
)

// goldenJobs covers every row of internal/harness/testdata/golden.tsv: the
// same kind x cores x seed matrix the golden-conformance suite pins, here
// submitted over HTTP.
var goldenJobs = []string{
	`{"workload":"tightloop","kinds":["Baseline","Baseline+","WiSyncNoT","WiSync"],"cores":[16,64],"seeds":[1]}`,
	`{"workload":"tightloop","kinds":["Baseline","WiSync"],"cores":[16,64],"seeds":[42]}`,
	`{"workload":"livermore2","kinds":["Baseline","WiSync"],"cores":[16,64],"seeds":[1]}`,
	`{"workload":"livermore6","kinds":["Baseline","WiSync"],"cores":[16,64],"seeds":[1]}`,
	`{"workload":"cas-fifo","kinds":["Baseline","WiSync"],"cores":[16,64],"seeds":[1]}`,
}

// loadGolden reads the committed golden matrix as id -> full row line.
func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../../internal/harness/testdata/golden.tsv")
	if err != nil {
		t.Fatalf("reading golden matrix: %v", err)
	}
	rows := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		id, _, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		rows[id] = line
	}
	return rows
}

func newTestServer(t *testing.T, o serverOptions) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(o)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// postJob submits one job and parses the NDJSON stream. The trailing done
// marker is returned separately from the result rows.
func postJob(t *testing.T, url, body string) (rows []rowMsg, done rowMsg, status int) {
	t.Helper()
	resp, err := http.Post(url+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /sweep: %v", err)
	}
	defer resp.Body.Close()
	status = resp.StatusCode
	if status != http.StatusOK {
		return nil, rowMsg{}, status
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sawDone := false
	for sc.Scan() {
		var m rowMsg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if m.Done {
			sawDone = true
			done = m
			continue
		}
		rows = append(rows, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if !sawDone {
		t.Fatalf("stream ended without done marker")
	}
	return rows, done, status
}

// TestServerGoldenSweep is the end-to-end smoke test: the full golden
// matrix submitted over HTTP must stream back byte-identical to
// testdata/golden.tsv, and a repeat of every job must be served entirely
// from the cache, still byte-identical.
func TestServerGoldenSweep(t *testing.T) {
	golden := loadGolden(t)
	s, ts := newTestServer(t, serverOptions{Workers: 4})

	seen := make(map[string]string)
	for _, body := range goldenJobs {
		rows, done, status := postJob(t, ts.URL, body)
		if status != http.StatusOK {
			t.Fatalf("job %s: status %d", body, status)
		}
		if done.Errors != 0 || done.Points != len(rows) {
			t.Fatalf("job %s: done=%+v with %d rows", body, done, len(rows))
		}
		for _, m := range rows {
			if m.Error != "" {
				t.Fatalf("error row %s: %s", m.ID, m.Error)
			}
			want, ok := golden[m.ID]
			if !ok {
				t.Fatalf("row %s not in the golden matrix", m.ID)
			}
			if m.Row != want {
				t.Errorf("row %s drifted from golden:\ngot:  %s\nwant: %s", m.ID, m.Row, want)
			}
			seen[m.ID] = m.Row
		}
	}
	if len(seen) != len(golden) {
		t.Fatalf("jobs covered %d of %d golden rows", len(seen), len(golden))
	}

	// Repeat every job: 100% cache hits, rows byte-identical.
	for _, body := range goldenJobs {
		rows, done, _ := postJob(t, ts.URL, body)
		if done.Hits != len(rows) {
			t.Fatalf("repeat of %s: %d/%d rows cached", body, done.Hits, len(rows))
		}
		for _, m := range rows {
			if !m.Cached {
				t.Errorf("repeat row %s not served from cache", m.ID)
			}
			if m.Row != seen[m.ID] {
				t.Errorf("cached row %s differs from first run:\ngot:  %s\nwant: %s", m.ID, m.Row, seen[m.ID])
			}
		}
	}
	if st := s.cache.Stats(); st.Hits < uint64(len(golden)) {
		t.Fatalf("cache stats after repeat: %+v", st)
	}
}

// badJobs holds one job per malformed-job class, each a 400 on a server
// whose job cap is badJobCap points.
const badJobCap = 8

var badJobs = map[string]string{
	"not json":             `{"workload": tightloop}`,
	"unknown field":        `{"workload":"tightloop","turbo":true}`,
	"unknown field shards": `{"workload":"tightloop","shards":2}`,
	"unknown workload":     `{"workload":"mystery"}`,
	"unknown app":          `{"workload":"app:doom"}`,
	"unknown kind":         `{"workload":"tightloop","kinds":["Quantum"]}`,
	"numeric kind":         `{"workload":"tightloop","kinds":[2]}`,
	"unknown mac":          `{"workload":"tightloop","mac":"aloha"}`,
	"unknown exec":         `{"workload":"tightloop","exec":"fiber"}`,
	"removed exec thread":  `{"workload":"tightloop","exec":"thread"}`,
	"unknown variant":      `{"workload":"tightloop","variant":"Turbo"}`,
	"zero cores":           `{"workload":"tightloop","cores":[0]}`,
	"too many cores":       `{"workload":"tightloop","cores":[500]}`,
	"iters beyond cap":     `{"workload":"tightloop","iters":100001}`,
	"job too large":        `{"workload":"tightloop","seeds":[1,2,3,4,5,6,7,8,9]}`,
	"negative deadline":    `{"workload":"tightloop","deadline_ms":-1}`,
	"trailing data":        `{"workload":"tightloop","cores":[16]} {"workload":"oops"} trailing-garbage`,
	"empty body":           ``,
	// A job lists its kinds, cores and seeds; the point template's scalar
	// spellings are not job fields.
	"scalar kind":  `{"workload":"tightloop","kind":"WiSync"}`,
	"scalar seed":  `{"workload":"tightloop","seed":3}`,
	"scalar cores": `{"workload":"tightloop","cores":16}`,
}

// oversizeJob lists 100,000 core counts and 100,000 seeds in about 500 KB:
// its expansion would be 10^10 specs, so the cap must be checked against
// the list product before anything is allocated.
func oversizeJob() string {
	var b strings.Builder
	b.WriteString(`{"workload":"tightloop","cores":[16`)
	b.WriteString(strings.Repeat(",16", 99999))
	b.WriteString(`],"seeds":[1`)
	b.WriteString(strings.Repeat(",1", 99999))
	b.WriteString(`]}`)
	return b.String()
}

// postBad posts body to /sweep and fails unless the answer is a 400 with a
// JSON error body.
func postBad(t *testing.T, url, name, body string) {
	t.Helper()
	resp, err := http.Post(url+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
	} else if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("%s: 400 without a JSON error body (%v)", name, err)
	}
}

// TestServerRejectsMalformed pins that every malformed-job class is a 400
// with a JSON error body — never a panic, never a worker crash.
func TestServerRejectsMalformed(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{Workers: 1, MaxJobPoints: badJobCap})
	for name, body := range badJobs {
		postBad(t, ts.URL, name, body)
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /sweep: status %d, want 405", resp.StatusCode)
	}
	// The server is still healthy after all of the above, and still
	// accepts "exec":"task", the one execution mode.
	if _, done, status := postJob(t, ts.URL, `{"workload":"tightloop","kinds":["WiSync"],"cores":[16],"exec":"task"}`); status != http.StatusOK || done.Errors != 0 {
		t.Fatalf("server unhealthy after malformed jobs: status=%d done=%+v", status, done)
	}
}

// TestServerRejectsOversizeJob posts a 500 KB job whose list product is
// 10^10 points to a server with the default cap: it must be a 400 decided
// from the list lengths, not an out-of-memory crash in the expansion.
func TestServerRejectsOversizeJob(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{Workers: 1})
	postBad(t, ts.URL, "oversize product", oversizeJob())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the oversize job: status %d", resp.StatusCode)
	}
}

// FuzzJobDecode drives the job-input surface (parseJob) with arbitrary
// bodies. It must never panic, must reach the same decision — and the same
// cache keys — every time it sees the same bytes, and an accepted job must
// expand to at most the cap, into specs that each re-validate and
// re-digest to their keys. The journal stores json.Marshal of the accepted
// job and replays it through parseJob, so that encoding must parse back to
// the same keys.
func FuzzJobDecode(f *testing.F) {
	for _, body := range badJobs {
		f.Add([]byte(body))
	}
	for _, body := range goldenJobs {
		f.Add([]byte(body))
	}
	f.Add([]byte(oversizeJob()))
	f.Add([]byte(`{"workload":"cas-add","kinds":["WiSyncNoT"],"cores":[16],"channel":"burst","faults":{"outages":[{"node":1,"at":100,"for":50}]}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		j, specs, keys, err := parseJob(bytes.NewReader(body), badJobCap)
		_, _, keys2, err2 := parseJob(bytes.NewReader(body), badJobCap)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("same bytes, different decisions: %v then %v", err, err2)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(keys, keys2) {
			t.Fatalf("same bytes, different keys:\n%v\n%v", keys, keys2)
		}
		if len(specs) > badJobCap || len(specs) != len(keys) {
			t.Fatalf("accepted job expands to %d specs and %d keys, cap %d", len(specs), len(keys), badJobCap)
		}
		for i, spec := range specs {
			if err := spec.Validate(); err != nil {
				t.Fatalf("accepted spec %s does not re-validate: %v", spec.ID(), err)
			}
			if d, err := spec.Digest(); err != nil || d != keys[i].Digest {
				t.Fatalf("spec %s re-digests to %q (%v), key says %q", spec.ID(), d, err, keys[i].Digest)
			}
		}
		stored, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("accepted job does not encode: %v", err)
		}
		_, _, replayed, err := parseJob(bytes.NewReader(stored), badJobCap)
		if err != nil || !reflect.DeepEqual(keys, replayed) {
			t.Fatalf("journaled form %s re-parses to %v (%v), want %v", stored, replayed, err, keys)
		}
	})
}

// TestJobDecodesEveryPointField: every harness.PointSpec field is a job
// field under its JSON name — kind, cores and seed as the kinds, cores and
// seeds lists — and decodes to the value it was written with.
func TestJobDecodesEveryPointField(t *testing.T) {
	tmpl := harness.PointSpec{Workload: "cas-add", Variant: config.SlowNet, MAC: wireless.MACToken,
		Channel: channel.Burst, BER: 1e-3, Retries: 3, BERGood: 1e-6, PGB: 0.02, PBG: 0.3,
		Faults: &fault.Plan{Outages: []fault.Outage{{Node: 1, At: 500, For: 100}}},
		Budget: 1 << 24, Watchdog: 1 << 20, Iters: 2, N: 3, Passes: 4, CS: 5, Duration: 6,
		Kind: config.WiSyncNoT, Cores: 16, Seed: 7}
	raw, err := json.Marshal(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if typ := reflect.TypeOf(tmpl); len(fields) != typ.NumField() {
		t.Fatalf("fixture sets %d of PointSpec's %d fields", len(fields), typ.NumField())
	}
	for scalar, list := range map[string]string{"kind": "kinds", "cores": "cores", "seed": "seeds"} {
		fields[list] = json.RawMessage("[" + string(fields[scalar]) + "]")
		if scalar != list {
			delete(fields, scalar)
		}
	}
	body, _ := json.Marshal(fields)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var j job
	if err := dec.Decode(&j); err != nil {
		t.Fatalf("job %s: %v", body, err)
	}
	want := tmpl
	want.Kind, want.Cores, want.Seed = 0, 0, 0
	if !reflect.DeepEqual(j.PointSpec, want) {
		t.Errorf("template decoded as %+v\nwant %+v", j.PointSpec, want)
	}
	if !reflect.DeepEqual(j.Kinds, []config.Kind{tmpl.Kind}) || !reflect.DeepEqual(j.Cores, []int{tmpl.Cores}) ||
		!reflect.DeepEqual(j.Seeds, []uint64{tmpl.Seed}) {
		t.Errorf("lists decoded as %v %v %v", j.Kinds, j.Cores, j.Seeds)
	}
}

// TestJournalPayloadsReplay: a journaled job in the member order an
// earlier server wrote (the lists right after the workload) parses to the
// same specs and keys as the request it came from, so a journal left on
// disk replays unchanged.
func TestJournalPayloadsReplay(t *testing.T) {
	for body, stored := range map[string]string{
		`{"workload":"tightloop"}`: `{"workload":"tightloop","kinds":["WiSync"],"cores":[64],"seeds":[1]}`,
		`{"workload":"cas-add","kinds":["WiSyncNoT"],"cores":[16],"mac":"token","channel":"burst","ber":1e-3,"faults":{"outages":[{"node":1,"at":100,"for":50}]},"cs":50,"duration":30000,"watchdog":200000,"deadline_ms":5000,"exec":"task"}`: `{"workload":"cas-add","kinds":["WiSyncNoT"],"cores":[16],"seeds":[1],"mac":"token","exec":"task","cs":50,"duration":30000,"channel":"burst","ber":0.001,"faults":{"outages":[{"node":1,"at":100,"for":50}]},"watchdog":200000,"deadline_ms":5000}`,
	} {
		_, specs, keys, err := parseJob(strings.NewReader(body), badJobCap)
		if err != nil {
			t.Fatal(err)
		}
		_, specs2, keys2, err := parseJob(strings.NewReader(stored), badJobCap)
		if err != nil || !reflect.DeepEqual(specs, specs2) || !reflect.DeepEqual(keys, keys2) {
			t.Errorf("stored %s replays to %v (%v), want %v", stored, keys2, err, keys)
		}
	}
}

// TestServerBackpressure pins the bounded-queue contract: a job that would
// exceed the admission limit is an immediate 429 with Retry-After, counted
// in /stats, and the server keeps serving afterwards.
func TestServerBackpressure(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{Workers: 1, QueueLimit: 2})
	body := `{"workload":"tightloop","kinds":["Baseline","WiSync"],"cores":[16,64],"seeds":[1]}` // 4 points > limit 2
	resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}
	// A job inside the limit still goes through.
	if _, done, status := postJob(t, ts.URL, `{"workload":"tightloop","kinds":["WiSync"],"cores":[16]}`); status != http.StatusOK || done.Errors != 0 {
		t.Fatalf("in-limit job failed after 429: status=%d done=%+v", status, done)
	}
}

// TestServerConcurrentIdenticalJobs hammers one job from many goroutines;
// under -race this pins the queue/cache/stream locking, and every response
// must be byte-identical (the load generator's invariant, in-process).
func TestServerConcurrentIdenticalJobs(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{Workers: 4, QueueLimit: 256})
	const clients = 32
	body := `{"workload":"tightloop","kinds":["Baseline","WiSync"],"cores":[16],"seeds":[1]}`
	results := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
			if err != nil {
				results[i] = "ERR " + err.Error()
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results[i] = fmt.Sprintf("ERR status %d", resp.StatusCode)
				return
			}
			var fp bytes.Buffer
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
			for sc.Scan() {
				var m rowMsg
				if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
					results[i] = "ERR " + err.Error()
					return
				}
				if m.Done {
					continue
				}
				fmt.Fprintf(&fp, "%s\t%s\t%s\n", m.ID, m.Row, m.Error)
			}
			if err := sc.Err(); err != nil {
				results[i] = "ERR " + err.Error()
				return
			}
			results[i] = fp.String()
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if strings.HasPrefix(results[i], "ERR") {
			t.Fatalf("client %d: %s", i, results[i])
		}
		if results[i] != results[0] {
			t.Fatalf("client %d response differs:\n%s\nvs\n%s", i, results[i], results[0])
		}
	}
}

// TestServerChannelJobs pins the channel axis over HTTP: an explicit ideal
// channel streams rows byte-identical to the golden matrix and shares
// cache entries with the implicit default, a lossy job reports
// retransmissions and energy, and the two never share a cache row.
func TestServerChannelJobs(t *testing.T) {
	golden := loadGolden(t)
	_, ts := newTestServer(t, serverOptions{Workers: 2})

	// Prime the cache with the default (no channel field) job.
	implicit := `{"workload":"tightloop","kinds":["WiSync"],"cores":[16],"seeds":[1]}`
	rows, done, status := postJob(t, ts.URL, implicit)
	if status != http.StatusOK || done.Errors != 0 || len(rows) != 1 {
		t.Fatalf("implicit job: status=%d done=%+v", status, done)
	}
	if want := golden[rows[0].ID]; rows[0].Row != want {
		t.Fatalf("implicit row drifted from golden:\ngot:  %s\nwant: %s", rows[0].Row, want)
	}

	// The explicit ideal form is the same point: byte-identical and a
	// cache hit.
	explicit := `{"workload":"tightloop","kinds":["WiSync"],"cores":[16],"seeds":[1],"channel":"ideal"}`
	rows2, done2, _ := postJob(t, ts.URL, explicit)
	if done2.Hits != 1 || !rows2[0].Cached {
		t.Fatalf("explicit ideal job missed the cache: done=%+v", done2)
	}
	if rows2[0].Row != rows[0].Row {
		t.Fatalf("explicit ideal row differs from implicit:\ngot:  %s\nwant: %s", rows2[0].Row, rows[0].Row)
	}

	// A lossy job is a different content address: no cache hit, and its
	// row carries the energy/retransmission columns.
	lossy := `{"workload":"tightloop","kinds":["WiSyncNoT"],"cores":[64],"seeds":[3],"channel":"uniform","ber":1e-5,"retries":20}`
	rows3, done3, _ := postJob(t, ts.URL, lossy)
	if done3.Errors != 0 || len(rows3) != 1 {
		t.Fatalf("lossy job: done=%+v", done3)
	}
	if rows3[0].Cached {
		t.Fatal("lossy job hit the ideal-channel cache entry")
	}
	row := rows3[0].Row
	if !strings.Contains(row, "\tenergy=") || !strings.Contains(row, "\tretx=") {
		t.Fatalf("lossy row missing energy columns: %s", row)
	}
	if strings.Contains(row, "retx=0\t") || strings.Contains(row, "energy=0pJ") {
		t.Fatalf("lossy row reports no corruption at BER 1e-5: %s", row)
	}
	// The repeat is a cache hit, byte-identical: corruption draws are a
	// pure function of (seed, config) (pinned end-to-end by
	// TestLossyPointDeterministic in internal/harness).
	rows4, done4, _ := postJob(t, ts.URL, lossy)
	if done4.Hits != 1 || !rows4[0].Cached || rows4[0].Row != row {
		t.Fatalf("lossy repeat: done=%+v row=%s", done4, rows4[0].Row)
	}

	// Unknown profile names are a 400 like every other enum.
	resp, err := http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"workload":"tightloop","channel":"rayleigh"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown channel profile: status %d, want 400", resp.StatusCode)
	}
	// Out-of-range BER under a lossy profile is caught by validation.
	resp, err = http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"workload":"tightloop","channel":"uniform","ber":1.5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range BER: status %d, want 400", resp.StatusCode)
	}
}

// TestServerJobDeadline pins the deadline contract: a job whose wall-clock
// deadline expires converts its unfinished points into structured abort
// error rows (counted in /stats as deadlines), the done marker still
// arrives, the worker is freed, and the server stays fully healthy — the
// aborted point was never cached, so a later run recomputes it.
func TestServerJobDeadline(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{Workers: 1})
	// A point heavy enough that a 1ms deadline always expires first.
	body := `{"workload":"tightloop","kinds":["WiSync"],"cores":[64],"iters":100000,"deadline_ms":1}`
	rows, done, status := postJob(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("deadline job: status %d", status)
	}
	if done.Errors != 1 || len(rows) != 1 {
		t.Fatalf("deadline job: done=%+v rows=%d", done, len(rows))
	}
	if !strings.Contains(rows[0].Error, "aborted") {
		t.Fatalf("deadline row is not a structured abort: %q", rows[0].Error)
	}
	if got := s.deadlines.Load(); got != 1 {
		t.Fatalf("deadlines counter %d, want 1", got)
	}

	// /stats reports the deadline abort.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	resp.Body.Close()
	if st.Deadlines != 1 || st.ErrorRows != 1 {
		t.Fatalf("/stats after deadline: %+v", st)
	}

	// The worker is free and the server healthy: a small undeadlined job
	// completes normally.
	if _, done, status := postJob(t, ts.URL, `{"workload":"tightloop","kinds":["WiSync"],"cores":[16]}`); status != http.StatusOK || done.Errors != 0 {
		t.Fatalf("server unhealthy after deadline abort: status=%d done=%+v", status, done)
	}
}

// TestServerDrainUnderLoad pins graceful shutdown: with a job mid-stream,
// StartDrain refuses new sweeps with 503 + Retry-After and flips /readyz
// (liveness /healthz stays 200), while the in-flight job keeps streaming
// to its done marker.
func TestServerDrainUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{Workers: 1})
	// Two points through one worker: after the first row arrives the job
	// is mid-flight by construction.
	body := `{"workload":"tightloop","kinds":["Baseline","WiSync"],"cores":[16],"seeds":[1]}`
	resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		t.Fatalf("stream ended before first row: %v", sc.Err())
	}
	var first rowMsg
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("bad first row %q: %v", sc.Text(), err)
	}
	if first.Error != "" || first.Done {
		t.Fatalf("unexpected first message: %+v", first)
	}

	s.StartDrain()

	// New sweeps are refused with 503 + Retry-After...
	r2, err := http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"workload":"tightloop","kinds":["WiSync"],"cores":[16]}`))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep while draining: status %d, want 503", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// ...and /readyz reports draining, while /healthz (pure liveness)
	// stays 200: the process is alive, just finishing its work.
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: status %d, want 503", rz.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: status %d, want 200", hz.StatusCode)
	}

	// ...but the in-flight job drains to completion, error-free.
	var rows int
	var done rowMsg
	for sc.Scan() {
		var m rowMsg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if m.Error != "" {
			t.Fatalf("error row while draining: %s: %s", m.ID, m.Error)
		}
		if m.Done {
			done = m
			break
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if !done.Done || done.Points != 2 || done.Errors != 0 {
		t.Fatalf("in-flight job did not drain cleanly: rows=%d done=%+v", rows+1, done)
	}
}
