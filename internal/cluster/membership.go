package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"dike/internal/serve/api"
)

// This file is the coordinator's dynamic-membership API: workers join
// and leave the fleet at runtime, optionally under a heartbeat lease,
// and every change rebuilds the consistent-hash ring (via the registry
// onMembership hook) so routing follows membership with minimal remap.

// maxLeaseTTL bounds a join lease; anything longer is effectively
// permanent membership and should be requested as such (ttl_ms: 0).
const maxLeaseTTL = time.Hour

// handleJoinWorker is POST /v1/cluster/workers: add a worker, or renew
// an existing worker's lease. Idempotent by design — self-registering
// workers heartbeat this endpoint, and a heartbeat races harmlessly
// with an operator's explicit join.
func (c *Coordinator) handleJoinWorker(w http.ResponseWriter, r *http.Request) {
	if c.Draining() {
		api.WriteError(w, http.StatusServiceUnavailable, errors.New("cluster: draining, membership frozen"))
		return
	}
	var req api.WorkerJoinRequest
	if !api.ReadRequest(w, r, &req) {
		return
	}
	target, err := normalizeWorkerURL(req.URL)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.TTLMs < 0 {
		api.WriteError(w, http.StatusBadRequest, errors.New("cluster: negative ttl_ms"))
		return
	}
	ttl := time.Duration(req.TTLMs) * time.Millisecond
	if ttl > maxLeaseTTL {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: ttl_ms above %v — join permanently instead", maxLeaseTTL))
		return
	}
	source := "api"
	if ttl > 0 {
		source = "lease"
	}
	joined := c.reg.add(target, ttl, source)
	_, total := c.reg.counts()
	status := http.StatusOK
	if joined {
		status = http.StatusCreated
	}
	api.WriteJSON(w, status, api.WorkerJoinResponse{URL: target, Joined: joined, Workers: total})
}

// handleLeaveWorker is DELETE /v1/cluster/workers?url=…: remove a
// worker from the fleet. Its keys re-home to ring successors; in-flight
// placements on it are abandoned (with a best-effort cancel on the
// worker) and re-route. Decommission cookbook: drain the worker first
// (SIGTERM → its /healthz turns 503), then DELETE it here.
func (c *Coordinator) handleLeaveWorker(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("url")
	if raw == "" {
		api.WriteError(w, http.StatusBadRequest, errors.New("cluster: leave requires ?url="))
		return
	}
	target, err := normalizeWorkerURL(raw)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if !c.reg.remove(target) {
		api.WriteError(w, http.StatusNotFound, fmt.Errorf("cluster: %s is not a member", target))
		return
	}
	_, total := c.reg.counts()
	api.WriteJSON(w, http.StatusOK, map[string]any{"url": target, "removed": true, "workers": total})
}

// normalizeWorkerURL validates a worker base URL and trims the trailing
// slash so joins, leaves and flag-configured members compare equal.
func normalizeWorkerURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return "", fmt.Errorf("cluster: worker URL must be absolute http(s), got %q", raw)
	}
	return raw, nil
}
