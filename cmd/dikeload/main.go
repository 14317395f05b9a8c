// Command dikeload is a closed-loop load generator for dikeserved: N
// concurrent clients each submit a job, wait for the submission
// response, optionally poll the job to completion, then immediately
// submit the next one. It reports throughput, submission-latency
// percentiles and a per-status-code breakdown, and exits non-zero if
// any request failed with something other than backpressure (429).
//
// Usage:
//
//	dikeload -n 50 -c 4                       # 50 requests, 4 clients
//	dikeload -addr http://host:9000 -mix 10,1 # 1 sweep per 10 runs
//	dikeload -seed-space 4                    # force cache/dedup hits
//	dikeload -churn -n 60                     # zero-loss soak gate
//
// Churn mode (-churn) is the soak gate for a fleet under failure
// injection: every spec is retried through transport errors, 5xx and
// backpressure until it completes, each completed result is hashed,
// and the run fails unless every spec completed (zero loss) and every
// digest resolved to exactly one result hash (no divergent
// duplicates). The final "soak digest" is a deterministic hash over
// the digest→result-hash table, so two soaks of the same spec set —
// chaos or no chaos, one worker or five — must print the same value.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dike/internal/cli"
	"dike/internal/serve/api"
)

func main() {
	var (
		addrFlag  = flag.String("addr", "http://127.0.0.1:8080", "dikeserved base URL")
		nFlag     = flag.Int("n", 50, "total requests to issue")
		cFlag     = flag.Int("c", 4, "concurrent closed-loop clients")
		mixFlag   = flag.String("mix", "1,0", "request mix as run,sweep weights")
		scaleFlag = flag.Float64("scale", 0.02, "workload scale per submitted run")
		seedFlag  = flag.Uint64("seed", 1, "base simulation seed")
		spaceFlag = flag.Int("seed-space", 0, "distinct seeds to draw from (0 = all distinct; small values force cache hits)")
		pollFlag  = flag.Bool("poll", true, "poll each accepted job to completion")
		waitFlag  = flag.Duration("job-timeout", 2*time.Minute, "per-job completion timeout when polling")
		churnFlag = flag.Bool("churn", false, "zero-loss soak gate: retry every spec to completion, verify exactly-once byte-identical results")
	)
	flag.Parse()
	if *nFlag < 1 || *cFlag < 1 {
		cli.Fatal(fmt.Errorf("dikeload: -n and -c must be positive"))
	}
	runW, sweepW, err := parseMix(*mixFlag)
	if err != nil {
		cli.Fatal(err)
	}
	if *churnFlag && sweepW > 0 {
		cli.Fatal(fmt.Errorf("dikeload: -churn verifies run results and is runs-only; use -mix 1,0"))
	}

	lg := &loadgen{
		api:     &api.Client{Base: strings.TrimRight(*addrFlag, "/"), HTTP: &http.Client{Timeout: 30 * time.Second}},
		n:       *nFlag,
		scale:   *scaleFlag,
		seed:    *seedFlag,
		space:   *spaceFlag,
		runW:    runW,
		sweepW:  sweepW,
		poll:    *pollFlag,
		timeout: *waitFlag,
		churn:   *churnFlag,
		codes:   make(map[int]int),
		lat:     newReservoir(reservoirSize, int64(*seedFlag)),
		results: make(map[string]map[string]int),
	}

	lg.report(os.Stdout, lg.drive(*cFlag), *cFlag)

	if lg.hardErrors() > 0 {
		os.Exit(1)
	}
}

// loadgen is the shared state of all closed-loop clients.
type loadgen struct {
	api     *api.Client
	n       int
	scale   float64
	seed    uint64
	space   int
	runW    int
	sweepW  int
	poll    bool
	timeout time.Duration
	churn   bool

	next int64 // atomically claimed request index

	mu        sync.Mutex
	codes     map[int]int // HTTP status → count (submissions only)
	lat       *reservoir
	transport int
	cached    int
	deduped   int
	completed int
	jobFailed int
	// Churn-mode accounting: spec digest → result hash → times seen,
	// plus specs that never completed inside their budget.
	results map[string]map[string]int
	lost    int
	retried int
}

// drive runs that many closed-loop clients until the request budget
// is spent and returns the wall time they took.
func (lg *loadgen) drive(clients int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lg.run(id)
		}(i)
	}
	wg.Wait()
	return time.Since(start)
}

// run is one closed-loop client: claim an index, submit, (optionally)
// poll to completion, repeat until the shared budget is spent.
func (lg *loadgen) run(client int) {
	for {
		i := atomic.AddInt64(&lg.next, 1) - 1
		if i >= int64(lg.n) {
			return
		}
		seed := lg.seed + uint64(i)
		if lg.space > 0 {
			seed = lg.seed + uint64(i)%uint64(lg.space)
		}
		if lg.churn {
			lg.churnOne(i, seed)
			continue
		}
		sub, code, ok := lg.submit(lg.request(i, seed))
		if lg.poll && ok {
			lg.await(sub.ID)
		}
		if code == http.StatusTooManyRequests {
			// Closed loop honours backpressure: brief pause, then retry
			// budget permitting (the index is already consumed — 429s are
			// part of the measured mix, not retried invisibly).
			time.Sleep(100 * time.Millisecond)
		}
	}
}

// request picks run vs sweep by weight and builds the POST body. The
// choice hangs off the claimed request index, not a per-client RNG, so
// two identical dikeload invocations submit the identical spec mix
// regardless of how clients interleave — which is what lets a smoke
// test rerun a pass against a warm store and demand zero simulations.
func (lg *loadgen) request(i int64, seed uint64) (string, []byte) {
	if lg.sweepW > 0 && int(i%int64(lg.runW+lg.sweepW)) < lg.sweepW {
		body, _ := json.Marshal(api.SweepRequest{Workload: 1, Seed: &seed, Scale: lg.scale})
		return "/v1/sweeps", body
	}
	policies := []string{"dike", "cfs", "dio"}
	body, _ := json.Marshal(api.RunRequest{
		Workload: 1 + int(seed%4), Policy: policies[seed%uint64(len(policies))],
		Seed: &seed, Scale: lg.scale,
	})
	return "/v1/runs", body
}

// submit posts one request and books its reply: the status code, the
// latency and the served-from flags, or a transport error. ok reports
// an accepted job.
func (lg *loadgen) submit(path string, body []byte) (sub api.SubmitResponse, code int, ok bool) {
	t0 := time.Now()
	sub, code, err := lg.api.Submit(context.Background(), path, body)
	lat := time.Since(t0)
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if code == 0 {
		lg.transport++
		return sub, code, false
	}
	lg.codes[code]++
	lg.lat.observe(lat)
	if sub.Cached {
		lg.cached++
	}
	if sub.Deduped {
		lg.deduped++
	}
	return sub, code, err == nil
}

// churnOne drives one spec to completion through whatever the network
// is doing: submissions are retried on transport errors, 5xx and 429
// with truncated backoff, and a placement that the fleet ultimately
// fails is resubmitted — content addressing makes the retry safe, the
// worker serves the digest from cache or store instead of recomputing.
// Only a spec that never completes inside the -job-timeout budget
// counts as lost.
func (lg *loadgen) churnOne(i int64, seed uint64) {
	path, body := lg.request(i, seed)
	deadline := time.Now().Add(lg.timeout)
	backoff := 50 * time.Millisecond
	first := true
	for time.Now().Before(deadline) {
		if !first {
			lg.mu.Lock()
			lg.retried++
			lg.mu.Unlock()
			time.Sleep(backoff)
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		first = false

		sub, _, ok := lg.submit(path, body)
		if !ok {
			continue
		}
		digest, sum, ok := lg.awaitResult(sub.ID, sub.Digest, deadline)
		if !ok {
			continue // job failed or poll budget ran out on this attempt
		}
		lg.mu.Lock()
		lg.completed++
		if lg.results[digest] == nil {
			lg.results[digest] = make(map[string]int)
		}
		lg.results[digest][sum]++
		lg.mu.Unlock()
		return
	}
	lg.mu.Lock()
	lg.lost++
	lg.mu.Unlock()
}

// awaitResult polls one job to "done" and hashes its result bytes
// (JSON-compacted first, so byte identity is about content, not about
// which code path serialised it). Poll transport errors are retried;
// a terminal failure returns ok=false so the caller resubmits.
func (lg *loadgen) awaitResult(id, digest string, deadline time.Time) (string, string, bool) {
	for time.Now().Before(deadline) {
		v, code, err := lg.api.Job(context.Background(), id)
		if code == 0 {
			lg.mu.Lock()
			lg.transport++
			lg.mu.Unlock()
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if code == http.StatusNotFound {
			return "", "", false // job table lost the ID: resubmit
		}
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		switch v.Status {
		case api.StatusDone:
			if v.Digest != "" {
				digest = v.Digest
			}
			var buf bytes.Buffer
			if err := json.Compact(&buf, v.Result); err != nil {
				return "", "", false // truncated/garbled body: resubmit
			}
			sum := sha256.Sum256(buf.Bytes())
			return digest, hex.EncodeToString(sum[:]), true
		case api.StatusFailed, api.StatusCanceled:
			return "", "", false
		}
		time.Sleep(25 * time.Millisecond)
	}
	return "", "", false
}

// soakDigest folds the digest→result-hash table into one hex value:
// SHA-256 over the sorted "spec-digest result-hash" lines. Two soaks
// that served the same spec set with identical results print the same
// digest, whatever the fleet looked like.
func (lg *loadgen) soakDigest() string {
	lines := make([]string, 0, len(lg.results))
	for digest, sums := range lg.results {
		for sum := range sums {
			lines = append(lines, digest+" "+sum)
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		io.WriteString(h, l)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// divergent counts digests that resolved to more than one result hash
// — the duplicate-with-different-bytes failure the soak gate exists to
// catch.
func (lg *loadgen) divergent() int {
	n := 0
	for _, sums := range lg.results {
		if len(sums) > 1 {
			n++
		}
	}
	return n
}

// await polls one job until it reaches a terminal state. A poll that
// gets no reply is a transport error; any other failed poll, and the
// -job-timeout running out, fail the job at once.
func (lg *loadgen) await(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), lg.timeout)
	defer cancel()
	v, err := lg.api.Await(ctx, id, 25*time.Millisecond)
	lg.mu.Lock()
	defer lg.mu.Unlock()
	var transport *url.Error
	switch {
	case err == nil && v.Status == api.StatusDone:
		lg.completed++
	case ctx.Err() == nil && errors.As(err, &transport):
		lg.transport++
	default:
		lg.jobFailed++
	}
}

// hardErrors counts outcomes that should fail a smoke run: transport
// errors, failed jobs, and any status outside {2xx, 429}. In churn
// mode transport errors and 5xx are the injected weather, not
// failures; the gate is zero loss and zero divergent duplicates.
func (lg *loadgen) hardErrors() int {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if lg.churn {
		return lg.lost + lg.divergent()
	}
	n := lg.transport + lg.jobFailed
	for code, count := range lg.codes {
		if (code < 200 || code > 299) && code != http.StatusTooManyRequests {
			n += count
		}
	}
	return n
}

func (lg *loadgen) report(w io.Writer, elapsed time.Duration, clients int) {
	lg.mu.Lock()
	defer lg.mu.Unlock()

	fmt.Fprintf(w, "dikeload: %d requests, %d clients, %v elapsed (%.1f req/s)\n",
		lg.lat.count+lg.transport, clients, elapsed.Round(time.Millisecond),
		float64(lg.lat.count)/elapsed.Seconds())

	codes := make([]int, 0, len(lg.codes))
	for c := range lg.codes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	parts := make([]string, 0, len(codes)+1)
	for _, c := range codes {
		parts = append(parts, strconv.Itoa(c)+"="+strconv.Itoa(lg.codes[c]))
	}
	if lg.transport > 0 {
		parts = append(parts, "transport-error="+strconv.Itoa(lg.transport))
	}
	fmt.Fprintf(w, "  status: %s\n", strings.Join(parts, " "))
	fmt.Fprintf(w, "  served: cached=%d deduped=%d\n", lg.cached, lg.deduped)
	if lg.churn {
		fmt.Fprintf(w, "  churn:  specs=%d completed=%d lost=%d retried=%d digests=%d divergent=%d\n",
			lg.n, lg.completed, lg.lost, lg.retried, len(lg.results), lg.divergent())
		fmt.Fprintf(w, "  soak digest: %s\n", lg.soakDigest())
	} else if lg.poll {
		fmt.Fprintf(w, "  jobs:   completed=%d failed=%d\n", lg.completed, lg.jobFailed)
	}

	if lg.lat.count > 0 {
		fmt.Fprintf(w, "  submit latency: p50=%v p90=%v p99=%v max=%v\n",
			lg.lat.percentile(0.50).Round(time.Microsecond),
			lg.lat.percentile(0.90).Round(time.Microsecond),
			lg.lat.percentile(0.99).Round(time.Microsecond),
			lg.lat.max.Round(time.Microsecond))
	}
}

// reservoirSize bounds the latency sample: runs up to this size keep
// every observation (percentiles are then exact); larger runs keep a
// uniform reservoir sample, so memory stays flat at any -n.
const reservoirSize = 4096

// reservoir is a classic uniform reservoir sampler over request
// latencies, plus exact count and max. Not goroutine-safe — callers
// hold the loadgen mutex.
type reservoir struct {
	size   int
	rng    *rand.Rand
	sample []time.Duration
	count  int
	max    time.Duration
}

func newReservoir(size int, seed int64) *reservoir {
	return &reservoir{size: size, rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) observe(d time.Duration) {
	r.count++
	if d > r.max {
		r.max = d
	}
	if len(r.sample) < r.size {
		r.sample = append(r.sample, d)
		return
	}
	if i := r.rng.Intn(r.count); i < r.size {
		r.sample[i] = d
	}
}

// percentile returns the p-quantile (p in [0, 1]) of the sample. The
// sample is in arrival order — it is only fully collected when the run
// is smaller than the reservoir — so it must be sorted before indexing:
// indexing the raw slice reports arrival order, not rank, and small
// smoke runs would print a meaningless p50/p99.
func (r *reservoir) percentile(p float64) time.Duration {
	if len(r.sample) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// parseMix parses "runWeight,sweepWeight".
func parseMix(s string) (int, int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("dikeload: -mix wants 'run,sweep' weights, got %q", s)
	}
	runW, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	sweepW, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil || runW < 0 || sweepW < 0 || runW+sweepW == 0 {
		return 0, 0, fmt.Errorf("dikeload: bad -mix %q", s)
	}
	return runW, sweepW, nil
}
