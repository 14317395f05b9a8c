package cli

import (
	"bytes"
	"context"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

// captureLog sends the standard logger to a buffer for the test.
func captureLog(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	log.SetOutput(&buf)
	log.SetFlags(0)
	t.Cleanup(func() {
		log.SetOutput(os.Stderr)
		log.SetFlags(log.LstdFlags)
	})
	return &buf
}

// TestServeDrainsOnSIGTERM sends the test process a real SIGTERM, as
// a daemon's main sees it: the handler answers until then, drain runs
// under a bounded context while the HTTP server still answers, the
// listener closes after it, and "<name> stopped" is the last line
// logged.
func TestServeDrainsOnSIGTERM(t *testing.T) {
	logs := captureLog(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	get := func() error {
		resp, err := http.Get("http://" + addr)
		if err == nil {
			resp.Body.Close()
		}
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	var servedWhileDraining bool
	var deadline time.Time
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, "dikeserved", addr, http.NotFoundHandler(), time.Minute, func(ctx context.Context) error {
			deadline, _ = ctx.Deadline()
			servedWhileDraining = get() == nil
			return nil
		})
	}()
	for start := time.Now(); get() != nil; time.Sleep(5 * time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("Serve never answered")
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after SIGTERM")
	}
	if left := time.Until(deadline); !servedWhileDraining || left < 50*time.Second || left > time.Minute {
		t.Errorf("served while draining: %v, drain deadline %v away; want true and about the 1m timeout", servedWhileDraining, left)
	}
	if get() == nil {
		t.Error("listener still answers after Serve returned")
	}
	lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
	if last := lines[len(lines)-1]; last != "dikeserved stopped" {
		t.Errorf("last log line %q, want %q; log:\n%s", last, "dikeserved stopped", logs)
	}
}

// TestServeDrainTimeout bounds a drain that never finishes by the
// timeout and reports it.
func TestServeDrainTimeout(t *testing.T) {
	logs := captureLog(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := Serve(ctx, "dikecoord", "127.0.0.1:0", http.NotFoundHandler(), 50*time.Millisecond, func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if err != nil || time.Since(start) > 5*time.Second {
		t.Fatalf("Serve = %v after %v, want nil after the 50ms timeout", err, time.Since(start))
	}
	for _, want := range []string{"drain incomplete, in-flight jobs were cancelled: context deadline exceeded", "dikecoord stopped"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, logs)
		}
	}
}

// TestServeListenerFailure returns the listen error without draining.
func TestServeListenerFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = Serve(context.Background(), "dikechaos", ln.Addr().String(), http.NotFoundHandler(), time.Second, func(context.Context) error {
		t.Error("drain ran after a listener failure")
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "address already in use") {
		t.Fatalf("Serve = %v, want the listen error", err)
	}
}
