package client

import (
	"math"
	"net"
	"net/http"

	"repro/service"
)

// Local starts service.New(opts) behind a loopback listener and returns an
// ordinary client for it, so a local run takes exactly the client calls a
// run against a consensusd daemon takes — and with them the service's
// seeding, caching, admission and timing. The returned function closes the
// listener, the service and the client's connections; call it once, after
// the last request.
//
// A local service guards no shared daemon, so MaxN and MaxBatchCells left
// at zero are lifted to their ceilings instead of the daemon defaults.
func Local(opts service.Options) (*Client, func(), error) {
	if opts.MaxN <= 0 {
		opts.MaxN = math.MaxInt64
	}
	if opts.MaxBatchCells <= 0 {
		opts.MaxBatchCells = math.MaxInt
	}
	svc, err := service.New(opts)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, nil, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // always http.ErrServerClosed once Close runs
	}()
	transport := &http.Transport{}
	c := New("http://" + ln.Addr().String())
	c.HTTPClient = &http.Client{Transport: transport}
	stop := func() {
		_ = srv.Close() // the listener's close error leaves nothing to do
		<-served
		svc.Close()
		transport.CloseIdleConnections()
	}
	return c, stop, nil
}
