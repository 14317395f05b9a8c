package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dike/internal/cluster"
)

// TestRegistrarJoinRenewLeave drives the registrar against an
// in-process coordinator: the first join makes the worker a leased
// member, renewals keep it past its TTL, and shutdown removes it at
// once instead of at lease expiry.
func TestRegistrarJoinRenewLeave(t *testing.T) {
	c, err := cluster.New(cluster.Config{ProbeInterval: -1, LeaseSweepInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	var joins atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/cluster/workers" {
			joins.Add(1)
		}
		c.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer c.Drain(context.Background())

	const advertise, ttl = "http://127.0.0.1:18099", 750 * time.Millisecond
	reg, err := newRegistrar(ts.URL+"/", advertise, ttl)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	reg.start()
	members := func() []string {
		var urls []string
		for _, w := range c.Workers().Workers {
			urls = append(urls, w.URL+" "+w.Source)
		}
		return urls
	}
	if got := members(); len(got) != 1 || got[0] != advertise+" lease" {
		t.Fatalf("after join: members %q, want one leased %s", got, advertise)
	}
	// Renewals every ttl/3 must carry the lease past its first expiry.
	for joins.Load() < 3 || time.Since(start) < ttl+ttl/4 {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("only %d joins in 10s", joins.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := members(); len(got) != 1 {
		t.Fatalf("after %v with %d joins: members %q, want the renewed lease", time.Since(start), joins.Load(), got)
	}
	reg.shutdown(context.Background())
	if got := members(); len(got) != 0 {
		t.Errorf("after shutdown: members %q, want none", got)
	}
}
