package cli

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"time"
)

// Serve answers HTTP on addr with h until ctx is done, then shuts down
// in order: drain runs under a context bounded by timeout (a daemon
// stops taking work there and lets what is in flight finish, while its
// status routes stay readable), the HTTP server closes under the same
// bound, and "<name> stopped" is logged. Each daemon's main makes ctx
// with signal.NotifyContext, so SIGINT or SIGTERM starts the drain. If
// the listener fails first, Serve returns its error without draining.
func Serve(ctx context.Context, name, addr string, h http.Handler, timeout time.Duration, drain func(context.Context) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	log.Printf("%s listening on %s", name, ln.Addr())

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("%s draining (timeout %v)", name, timeout)
	dctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := drain(dctx); err != nil {
		log.Printf("drain incomplete, in-flight jobs were cancelled: %v", err)
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("%s stopped", name)
	return nil
}
