package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"dike/internal/serve"
	"dike/internal/serve/api"
	"dike/internal/store"
)

// serve-mix shape: 8 hot specs that stay in the LRU, 48 cold specs that
// live only in the durable store, and fresh specs that must simulate.
const (
	serveHot     = 8
	serveCold    = 48
	serveClients = 2
	serveLRU     = 16
	// serveWarmUp requests run after set-up, before the window.
	serveWarmUp = 20
)

// serveDeck is one block of ten draws: 60% hot, 30% cold, 10% fresh,
// shuffled per block so the mix holds in every stretch of requests.
var serveDeck = [10]int{familyHot, familyHot, familyHot, familyHot, familyHot, familyHot, familyCold, familyCold, familyCold, familyFresh}

// prepared is a request ready to send: its body and spec digest are
// computed before the latency clock starts.
type prepared struct {
	label  string
	body   []byte
	digest string
}

func prepare(in input) (prepared, error) {
	spec, err := in.spec()
	if err != nil {
		return prepared{}, err
	}
	digest, err := spec.Digest()
	if err != nil {
		return prepared{}, err
	}
	body, err := json.Marshal(in.req)
	if err != nil {
		return prepared{}, err
	}
	return prepared{label: in.label, body: body, digest: digest}, nil
}

// serveRunner is an in-process serve.Server on loopback with a durable
// store, and the closed-loop clients that drive it.
type serveRunner struct {
	e       *env
	dir     string
	st      *store.Store
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	hot     []prepared
	cold    []prepared
	clients [serveClients]*client
}

// client is one closed-loop caller with its own connection and its own
// seeded stream of draws.
type client struct {
	d     *serveRunner
	hc    *http.Client
	rng   *rand.Rand
	deck  []int
	fresh int // next fresh spec index; clients take alternate indices
}

// startServe simulates the cold and hot sets through a first server,
// restarts on the same store so the cold set is served from disk, loads
// the hot set into the LRU, and warms up with mixed requests.
func startServe(ctx context.Context, e *env) (runner, error) {
	dir, err := os.MkdirTemp("", "dikeperf-serve-")
	if err != nil {
		return nil, err
	}
	d := &serveRunner{e: e, dir: dir}
	if err := d.setUp(ctx); err != nil {
		return nil, errors.Join(err, d.close())
	}
	return d, nil
}

func (d *serveRunner) setUp(ctx context.Context) error {
	for i := 0; i < serveCold; i++ {
		p, err := prepare(serveInput(d.e.seed, familyCold, i))
		if err != nil {
			return err
		}
		d.cold = append(d.cold, p)
	}
	for i := 0; i < serveHot; i++ {
		p, err := prepare(serveInput(d.e.seed, familyHot, i))
		if err != nil {
			return err
		}
		d.hot = append(d.hot, p)
	}
	for c := range d.clients {
		d.clients[c] = &client{
			d: d,
			hc: &http.Client{
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
				Timeout:   time.Minute,
			},
			rng:   rand.New(rand.NewPCG(d.e.seed, uint64(c))),
			fresh: c,
		}
	}

	if err := d.boot(); err != nil {
		return err
	}
	// Populate: every cold and hot spec simulates once and lands in the
	// store.
	if err := d.each(ctx, append(append([]prepared(nil), d.cold...), d.hot...)); err != nil {
		return fmt.Errorf("populate: %w", err)
	}
	// Restart on the same store: the LRU starts empty and store.Open
	// recovers the index from the segment log.
	if err := d.shutdown(); err != nil {
		return err
	}
	if err := d.boot(); err != nil {
		return err
	}
	if err := d.each(ctx, d.hot); err != nil {
		return fmt.Errorf("load hot set: %w", err)
	}
	w := newWindow(d.e, 0, serveWarmUp, 1)
	d.window(ctx, w)
	if w.firstEr != nil {
		return fmt.Errorf("warm-up: %w", w.firstEr)
	}
	return nil
}

// each requests ps one after another on the first client.
func (d *serveRunner) each(ctx context.Context, ps []prepared) error {
	w := newWindow(d.e, 0, len(ps), 1)
	for _, p := range ps {
		w.do(ctx, "setup", func(ctx context.Context) (string, error) { return d.clients[0].do(ctx, p) })
	}
	return w.firstEr
}

// boot opens the store and starts a server on a loopback port.
func (d *serveRunner) boot() error {
	st, err := store.Open(d.dir, store.Options{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return errors.Join(err, st.Close())
	}
	d.st = st
	d.srv = serve.New(serve.Config{Workers: 1, CacheSize: serveLRU, Store: st, Simulate: d.e.layers.run})
	d.srv.Start()
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.e.layers.handler(d.srv.Handler())}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	return nil
}

// shutdown stops the HTTP server, drains the service and closes the
// store.
func (d *serveRunner) shutdown() error {
	if d.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, d.srv.Drain(ctx), d.st.Close())
	for _, c := range d.clients {
		c.hc.CloseIdleConnections()
	}
	d.hs = nil
	return err
}

func (d *serveRunner) cycle() int { return 1 }

func (d *serveRunner) close() error {
	return errors.Join(d.shutdown(), os.RemoveAll(d.dir))
}

// window runs the closed loop: each client sends its next request as
// soon as the previous one has its result.
func (d *serveRunner) window(ctx context.Context, w *window) {
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for w.next() {
				p, err := c.draw()
				if err != nil {
					w.do(ctx, "op", func(context.Context) (string, error) { return "", err })
					continue
				}
				w.do(ctx, "op", func(ctx context.Context) (string, error) { return c.do(ctx, p) })
			}
		}(c)
	}
	wg.Wait()
}

// draw picks the client's next request.
func (c *client) draw() (prepared, error) {
	if len(c.deck) == 0 {
		c.deck = append(c.deck, serveDeck[:]...)
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
	}
	family := c.deck[0]
	c.deck = c.deck[1:]
	switch family {
	case familyHot:
		return c.d.hot[c.rng.IntN(serveHot)], nil
	case familyCold:
		return c.d.cold[c.rng.IntN(serveCold)], nil
	}
	i := c.fresh
	c.fresh += serveClients
	return prepare(serveInput(c.d.e.seed, familyFresh, i))
}

// do sends one request: POST /v1/runs, follow /events until the job is
// terminal if it was queued, then GET the job. The class comes from the
// response's cached/stored flags.
func (c *client) do(ctx context.Context, p prepared) (string, error) {
	var sub api.SubmitResponse
	if err := c.call(ctx, http.MethodPost, "/v1/runs", p, &sub); err != nil {
		return "", err
	}
	if !api.Terminal(sub.Status) {
		if err := c.follow(ctx, p, sub.ID); err != nil {
			return "", err
		}
	}
	var view api.JobView
	if err := c.call(ctx, http.MethodGet, "/v1/runs/"+sub.ID, p, &view); err != nil {
		return "", err
	}
	if view.Status != api.StatusDone {
		return "", fmt.Errorf("%s: job %s ended %s: %s", p.label, view.ID, view.Status, view.Error)
	}
	if err := c.d.e.check.check(p.label, sha256Hex(view.Result)); err != nil {
		return "", err
	}
	switch {
	case view.Stored:
		return "store_hit", nil
	case view.Cached:
		return "hit", nil
	}
	return "miss", nil
}

func (c *client) send(ctx context.Context, method, path string, p prepared) (*http.Response, error) {
	var body io.Reader
	if method == http.MethodPost {
		body = bytes.NewReader(p.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.d.url+path, body)
	if err != nil {
		return nil, err
	}
	c.d.e.layers.request(ctx, req, p.digest)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// call sends a request and decodes its JSON response into v.
func (c *client) call(ctx context.Context, method, path string, p prepared, v any) error {
	resp, err := c.send(ctx, method, path, p)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// follow reads a job's NDJSON event stream up to its terminal event.
func (c *client) follow(ctx context.Context, p prepared, id string) error {
	resp, err := c.send(ctx, http.MethodGet, "/v1/runs/"+id+"/events", p)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev api.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events of %s: %w", id, err)
		}
		if ev.Status != "" {
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events of %s: %w", id, err)
	}
	return fmt.Errorf("events of %s: stream ended before a terminal event", id)
}
