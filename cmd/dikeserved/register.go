package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"strings"
	"time"

	"dike/internal/serve/api"
)

// registrar keeps a worker registered with a dikecoord coordinator:
// one join POST at startup, then heartbeat renewals at a third of the
// lease TTL so a live worker never expires, and a best-effort DELETE
// on shutdown so a drained worker leaves the ring immediately instead
// of waiting out its lease. A worker that dies abruptly is covered by
// the other half of the protocol — the coordinator expires the lease.
type registrar struct {
	coord     string        // coordinator base URL
	advertise string        // URL the coordinator should dial us on
	ttl       time.Duration // lease TTL; 0 registers permanently (no heartbeat)
	client    *api.Client   // the coordinator's /v1 API
	stop      chan struct{}
	done      chan struct{}
}

func newRegistrar(coord, advertise string, ttl time.Duration) (*registrar, error) {
	coord = strings.TrimRight(strings.TrimSpace(coord), "/")
	advertise = strings.TrimRight(strings.TrimSpace(advertise), "/")
	if advertise == "" {
		return nil, fmt.Errorf("dikeserved: -coord requires -advertise (the URL the coordinator dials this worker on)")
	}
	if ttl < 0 {
		return nil, fmt.Errorf("dikeserved: -lease must be >= 0, got %v", ttl)
	}
	return &registrar{
		coord:     coord,
		advertise: advertise,
		ttl:       ttl,
		client:    &api.Client{Base: coord, HTTP: &http.Client{Timeout: 5 * time.Second}},
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}, nil
}

// start joins immediately (retrying until the coordinator answers) and
// then heartbeats in the background. It returns once the first join
// attempt has been made, not once it has succeeded — a worker must
// come up even when its coordinator is still booting.
func (r *registrar) start() {
	if err := r.join(); err != nil {
		log.Printf("register with %s failed (will retry): %v", r.coord, err)
	}
	go r.loop()
}

func (r *registrar) loop() {
	defer close(r.done)
	// Renew at a third of the TTL so two heartbeats can be lost before
	// the lease expires. Permanent registrations still retry slowly
	// until one join lands, then stop.
	interval := r.ttl / 3
	if r.ttl == 0 {
		interval = 5 * time.Second
	}
	if interval < 250*time.Millisecond {
		interval = 250 * time.Millisecond
	}
	joined := false
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			if r.ttl == 0 && joined {
				continue // permanent membership needs no renewal
			}
			if err := r.join(); err != nil {
				log.Printf("lease renewal with %s failed: %v", r.coord, err)
			} else {
				joined = true
			}
		}
	}
}

func (r *registrar) join() error {
	body, err := json.Marshal(api.WorkerJoinRequest{URL: r.advertise, TTLMs: r.ttl.Milliseconds()})
	if err != nil {
		return err
	}
	code, err := r.client.Do(context.Background(), http.MethodPost, "/v1/cluster/workers", body, nil)
	switch {
	case code == 0:
		return err
	case code != http.StatusOK && code != http.StatusCreated:
		return fmt.Errorf("coordinator answered %d %s", code, http.StatusText(code))
	}
	return nil
}

// shutdown stops the heartbeat and deregisters, so the coordinator
// drops this worker from the ring now rather than at lease expiry.
func (r *registrar) shutdown(ctx context.Context) {
	close(r.stop)
	<-r.done
	code, err := r.client.Do(ctx, http.MethodDelete, "/v1/cluster/workers?url="+url.QueryEscape(r.advertise), nil, nil)
	if code == 0 {
		log.Printf("deregister from %s failed (lease will expire): %v", r.coord, err)
		return
	}
	log.Printf("deregistered %s from %s", r.advertise, r.coord)
}
