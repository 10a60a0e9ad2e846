// Package serve is how every CEEMS process serves and stops. A command binds
// its servers before it opens its role, so a taken port fails start-up
// before any WAL is replayed, then hands Run the servers with their
// handlers, its background loops and the role's closers. Run serves until
// SIGINT or SIGTERM arrives, a server fails or a loop returns, and then
// stops in one order: stop accepting, drain the requests in flight, cancel
// the loops, close the role (docs/ARCHITECTURE.md, "Processes").
package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers the profiles on http.DefaultServeMux
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

const (
	// ReadHeaderTimeout bounds how long a client may take to send a
	// request's headers.
	ReadHeaderTimeout = 10 * time.Second
	// IdleTimeout closes a keep-alive connection with no request for this
	// long.
	IdleTimeout = 2 * time.Minute
	// DrainTimeout is how long a stop waits for requests in flight before
	// it cancels their contexts.
	DrainTimeout = 10 * time.Second
)

// Server is an address a command serves and the handler it serves there.
type Server struct {
	Name    string // for the log and errors
	Addr    string
	Handler http.Handler // may be set after Bind

	ln net.Listener
}

// Bind binds every server's address, in order, or none of them.
func Bind(servers ...*Server) error {
	for i, s := range servers {
		ln, err := net.Listen("tcp", s.Addr)
		if err != nil {
			for _, bound := range servers[:i] {
				bound.ln.Close()
			}
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		s.ln = ln
	}
	return nil
}

// BoundAddr is the address a bound server listens on, with the port the
// kernel picked when Addr asked for any.
func (s *Server) BoundAddr() string { return s.ln.Addr().String() }

// Close releases a bound server's listener when the command gives up
// before Run.
func (s *Server) Close() error { return s.ln.Close() }

// Profiles is the server of the net/http/pprof profiles on addr, on a
// listener of their own and never a query one; none when addr is empty.
func Profiles(addr string) []*Server {
	if addr == "" {
		return nil
	}
	return []*Server{{Name: "pprof", Addr: addr, Handler: http.DefaultServeMux}}
}

// Process is what Run serves and stops.
type Process struct {
	Servers []*Server // bound, with their handlers set
	Loops   []Loop
	// Closers close the role, in order, once every request and loop has
	// returned.
	Closers []func() error
}

// Loop is a background loop of a process. It runs until its context is
// done; one that returns on its own stops the process.
type Loop func(context.Context)

// Every is a loop that calls f every d until its context is done.
func Every(d time.Duration, f func(ctx context.Context, now time.Time)) Loop {
	return func(ctx context.Context) {
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-tick.C:
				f(ctx, now)
			}
		}
	}
}

// Run serves p until ctx is done, SIGINT or SIGTERM arrives, a server fails
// or a loop returns. Then it stops accepting connections, drains the
// requests in flight for up to DrainTimeout, cancels the contexts of those
// still running and closes the servers, cancels the loops and waits for
// them, and runs the closers. It returns the servers' and the closers'
// errors; a stop asked for by a signal, ctx or a loop is not one.
func Run(ctx context.Context, p Process) error {
	return run(ctx, p, DrainTimeout)
}

func run(parent context.Context, p Process, drain time.Duration) error {
	ctx, stop := context.WithCancelCause(parent)
	defer stop(nil)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		select {
		case sig := <-sigs:
			stop(fmt.Errorf("signal %v", sig))
		case <-ctx.Done():
		}
	}()

	var (
		errMu sync.Mutex
		errs  []error
	)
	fail := func(err error) {
		errMu.Lock()
		errs = append(errs, err)
		errMu.Unlock()
		stop(err)
	}
	// Requests outlive ctx by the drain; reqs is cancelled when it ends.
	// Every handler holds inflight shared, so taking it whole waits them out.
	reqs, cancelReqs := context.WithCancel(context.WithoutCancel(parent))
	defer cancelReqs()
	var inflight sync.RWMutex
	var served sync.WaitGroup
	servers := make([]*http.Server, len(p.Servers))
	for i, s := range p.Servers {
		h := s.Handler
		servers[i] = &http.Server{
			Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !inflight.TryRLock() {
					http.Error(w, "shutting down", http.StatusServiceUnavailable)
					return
				}
				defer inflight.RUnlock()
				h.ServeHTTP(w, r)
			}),
			ReadHeaderTimeout: ReadHeaderTimeout,
			IdleTimeout:       IdleTimeout,
			BaseContext:       func(net.Listener) context.Context { return reqs },
		}
		served.Add(1)
		go func(srv *http.Server, s *Server) {
			defer served.Done()
			if err := srv.Serve(s.ln); !errors.Is(err, http.ErrServerClosed) {
				fail(fmt.Errorf("serve %s on %s: %w", s.Name, s.BoundAddr(), err))
			}
		}(servers[i], s)
		log.Printf("serve: %s on %s", s.Name, s.BoundAddr())
	}
	loopCtx, cancelLoops := context.WithCancel(context.WithoutCancel(parent))
	defer cancelLoops()
	var loops sync.WaitGroup
	for _, loop := range p.Loops {
		loops.Add(1)
		go func() {
			defer loops.Done()
			loop(loopCtx)
			stop(errors.New("a loop ended"))
		}()
	}

	<-ctx.Done()
	log.Printf("serve: stopping (%v): draining requests for up to %v", context.Cause(ctx), drain)
	drained, cancelDrain := context.WithTimeout(context.WithoutCancel(parent), drain)
	var shut sync.WaitGroup
	for _, srv := range servers {
		shut.Add(1)
		go func() {
			defer shut.Done()
			srv.Shutdown(drained)
		}()
	}
	shut.Wait()
	cancelDrain()
	cancelReqs()
	for _, srv := range servers {
		srv.Close()
	}
	inflight.Lock()
	served.Wait()
	cancelLoops()
	loops.Wait()
	for _, c := range p.Closers {
		if err := c(); err != nil {
			errs = append(errs, err)
		}
	}
	log.Print("serve: stopped")
	return errors.Join(errs...)
}
