// Command wisync-load drives cmd/wisync-server with many concurrent sweep
// requests and verifies the service's two core promises under load:
// every request eventually completes without error (riding 429
// backpressure with retries), and responses for the same job are
// byte-identical on every repetition — the determinism that makes the
// content-addressed cache sound, observed end to end over HTTP.
//
//	wisync-server -addr 127.0.0.1:8080 &
//	wisync-load -addr http://127.0.0.1:8080 -requests 1000 -distinct 8
//
// The run fires -requests requests (all launched concurrently unless
// -concurrency caps the in-flight count) spread over -distinct job
// variants that differ only in seed, so requests overlap heavily — the
// service's hot case. It reports throughput, latency percentiles, the
// cache-served row fraction and 429 retry counts, and exits nonzero if
// any request ultimately fails, any response contains an error row, or
// two responses to the same job differ. A stream that ends with neither a
// done nor a failed trailer is counted apart, as truncated: the server
// died mid-job, and the remedy is to resubmit the job once it is back.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// row mirrors the server's NDJSON line shape.
type row struct {
	ID     string `json:"id,omitempty"`
	Row    string `json:"row,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	Done   bool   `json:"done,omitempty"`
	Points int    `json:"points,omitempty"`
	Errors int    `json:"errors,omitempty"`
	Failed bool   `json:"failed,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// outcome is one request's digest: which job variant it ran, the
// fingerprint of its result rows (id/row/error only — cache metadata is
// excluded so a cached replay must fingerprint identically to the first
// computation), and bookkeeping.
type outcome struct {
	variant    int
	fp         [sha256.Size]byte
	rows       int
	cachedRows int
	errorRows  int
	retries    int
	latency    time.Duration
	err        error
	// deadline marks a request that hit the client-side -timeout: its own
	// outcome class, distinct from 429 backpressure and hard errors.
	deadline bool
	// truncated marks a stream that ended without a done or failed
	// trailer: the signature of the server process dying mid-job (a crash
	// or kill -9, not a graceful error — graceful failures send a
	// {"failed"} trailer). Its own class because the remedy differs:
	// resubmit the job when the server returns; with -cache-dir the points
	// that finished before the crash come back from its durable cache.
	truncated bool
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "wisync-server base URL")
	requests := flag.Int("requests", 1000, "total sweep requests to issue")
	concurrency := flag.Int("concurrency", 0, "max in-flight requests (0 = all at once)")
	distinct := flag.Int("distinct", 8, "distinct job variants (seeds) to spread requests over")
	jobDoc := flag.String("job", "", "job JSON template (default: a quick golden-covered kernel job); its seeds are overridden per variant")
	maxRetries := flag.Int("max-retries", 100, "max 429 retries per request before giving up")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request timeout; requests that hit it are reported as deadline outcomes, not errors")
	flag.Parse()

	if *distinct < 1 {
		*distinct = 1
	}
	// The default job is golden-covered (testdata/golden.tsv rows), small
	// enough to saturate request handling rather than simulation.
	base := map[string]any{
		"workload": "tightloop",
		"kinds":    []string{"Baseline", "WiSync"},
		"cores":    []int{16, 64},
	}
	if *jobDoc != "" {
		base = nil
		if err := json.Unmarshal([]byte(*jobDoc), &base); err != nil {
			fmt.Fprintf(os.Stderr, "wisync-load: bad -job: %v\n", err)
			os.Exit(2)
		}
	}
	bodies := make([][]byte, *distinct)
	for v := range bodies {
		base["seeds"] = []uint64{uint64(v) + 1}
		b, err := json.Marshal(base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wisync-load: %v\n", err)
			os.Exit(2)
		}
		bodies[v] = b
	}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 1024,
		},
	}
	var sem chan struct{}
	if *concurrency > 0 {
		sem = make(chan struct{}, *concurrency)
	}
	outcomes := make([]outcome, *requests)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			v := i % *distinct
			outcomes[i] = oneRequest(client, *addr, v, bodies[v], *maxRetries)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	report(outcomes, elapsed, *distinct)
}

// oneRequest posts the job, retrying on 429 with the server's Retry-After
// hint (falling back to capped, jittered exponential backoff when the
// hint is absent or unusable), and fingerprints the streamed rows.
func oneRequest(client *http.Client, addr string, variant int, body []byte, maxRetries int) outcome {
	o := outcome{variant: variant}
	start := time.Now()
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(addr+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			o.err = err
			o.deadline = isTimeout(err)
			return o
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			header := resp.Header.Get("Retry-After")
			resp.Body.Close()
			if attempt >= maxRetries {
				o.err = fmt.Errorf("gave up after %d 429s", attempt)
				return o
			}
			o.retries++
			time.Sleep(retryDelay(attempt, header, jitter50))
			continue
		}
		if resp.StatusCode != http.StatusOK {
			o.err = fmt.Errorf("status %s", resp.Status)
			resp.Body.Close()
			return o
		}
		h := sha256.New()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		done := false
		for sc.Scan() {
			var r row
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				o.err = fmt.Errorf("bad stream line: %v", err)
				resp.Body.Close()
				return o
			}
			if r.Done {
				done = true
				continue
			}
			if r.Failed {
				// A graceful mid-stream failure: the server stayed alive and
				// said so. A hard error, but not a truncation.
				o.err = fmt.Errorf("server failed the job mid-stream: %s", r.Reason)
				resp.Body.Close()
				return o
			}
			o.rows++
			if r.Cached {
				o.cachedRows++
			}
			if r.Error != "" {
				o.errorRows++
			}
			fmt.Fprintf(h, "%s\t%s\t%s\n", r.ID, r.Row, r.Error)
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			o.err = err
			o.deadline = isTimeout(err)
			return o
		}
		if !done {
			// Neither trailer arrived: the server process died mid-stream.
			o.truncated = true
			o.err = fmt.Errorf("stream truncated: ended without a done or failed trailer after %d rows", o.rows)
			return o
		}
		copy(o.fp[:], h.Sum(nil))
		o.latency = time.Since(start)
		return o
	}
}

// retryDelay computes the wait before re-submitting after a 429. A usable
// Retry-After header wins; otherwise — header absent, zero, negative, or
// malformed — the fallback is capped exponential backoff: clients that
// can't be told when to return must at least not return in lockstep, and
// must space out under sustained overload instead of hammering linearly.
// jitter maps the raw delay to the slept one (jitter50 in production;
// tests pass the identity to keep assertions exact).
func retryDelay(attempt int, retryAfter string, jitter func(time.Duration) time.Duration) time.Duration {
	if d, ok := parseRetryAfter(retryAfter); ok {
		return d
	}
	return jitter(backoff429(attempt))
}

// parseRetryAfter interprets a 429's Retry-After header. ok is false for
// the fall-back-to-backoff cases: absent, zero, negative, or malformed.
func parseRetryAfter(h string) (time.Duration, bool) {
	ra, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || ra <= 0 {
		return 0, false
	}
	// Poll faster than the hint: Retry-After is a coarse whole-second
	// floor, while admission capacity frees at sweep-point granularity.
	return time.Duration(ra) * time.Second / 4, true
}

// backoff429 is the fallback spacing: 100ms doubling per attempt, capped
// at 5s.
func backoff429(attempt int) time.Duration {
	const base, maxDelay = 100 * time.Millisecond, 5 * time.Second
	if attempt >= 6 { // base<<6 exceeds the cap
		return maxDelay
	}
	d := base << attempt
	if d > maxDelay {
		return maxDelay
	}
	return d
}

// jitter50 spreads a delay over [d/2, 3d/2), so a burst of rejected
// clients does not reconverge on the server simultaneously.
func jitter50(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d)+1))
}

// isTimeout reports whether err is the client-side -timeout firing (on
// connect, headers, or mid-stream) rather than a hard failure.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func report(outcomes []outcome, elapsed time.Duration, distinct int) {
	var ok, failed, truncated, deadlines, retries, rows, cachedRows, errorRows int
	var latencies []time.Duration
	fps := make(map[int][sha256.Size]byte, distinct)
	mismatched := 0
	for _, o := range outcomes {
		retries += o.retries
		if o.deadline {
			deadlines++
			continue
		}
		if o.truncated {
			truncated++
			continue
		}
		if o.err != nil {
			failed++
			continue
		}
		ok++
		rows += o.rows
		cachedRows += o.cachedRows
		errorRows += o.errorRows
		latencies = append(latencies, o.latency)
		if prev, seen := fps[o.variant]; !seen {
			fps[o.variant] = o.fp
		} else if prev != o.fp {
			mismatched++
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	fmt.Printf("requests=%d ok=%d failed=%d truncated=%d deadline=%d retries429=%d elapsed=%v rps=%.1f\n",
		len(outcomes), ok, failed, truncated, deadlines, retries, elapsed.Round(time.Millisecond),
		float64(ok)/elapsed.Seconds())
	fmt.Printf("rows=%d cached=%d (%.1f%%) errorRows=%d variants=%d mismatched=%d\n",
		rows, cachedRows, 100*float64(cachedRows)/max(1, float64(rows)), errorRows,
		distinct, mismatched)
	fmt.Printf("latency p50=%v p95=%v max=%v\n",
		pct(0.50).Round(time.Millisecond), pct(0.95).Round(time.Millisecond),
		pct(1.0).Round(time.Millisecond))
	if truncated > 0 {
		// Distinct failure class and message: a truncated stream means the
		// server process died mid-job — look for a crash, not a bad job.
		fmt.Printf("FAIL: %d streams truncated (no done/failed trailer) — the server died mid-job; resubmit once it is back\n", truncated)
		os.Exit(1)
	}
	if failed > 0 || mismatched > 0 || errorRows > 0 {
		fmt.Println("FAIL: requests failed, responses diverged, or error rows were returned")
		os.Exit(1)
	}
	if deadlines > 0 {
		// The caller's own -timeout cut these off: a distinct outcome, not
		// a service failure.
		fmt.Printf("OK: %d completed byte-identical; %d hit the -timeout deadline\n", ok, deadlines)
		return
	}
	fmt.Println("OK: all requests completed; repeated jobs byte-identical")
}
