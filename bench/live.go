package main

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/live"
)

// liveDeadline bounds one GET in wall time. It is generous: a transfer
// that needs it is reported as a failed unit either way.
const liveDeadline = 60 * time.Second

// liveHandshakeSeed is the key-exchange seed of every live connection;
// the isolated drivers derive the same packet-protection keys from it.
const liveHandshakeSeed = 1

// liveServer is one in-process GET server: a live driver on loopback
// sockets, a listener, and the goroutine running the driver's loop.
type liveServer struct {
	d    *live.Driver
	lis  *core.Listener
	done chan error
}

// startServer binds nPaths loopback sockets and serves GETs on them.
// With a tracer the endpoint sits behind the tracer's decorators.
func startServer(nPaths int, cfg core.Config, tr *tracer) (*liveServer, error) {
	var opts []live.Option
	if tr != nil {
		opts = append(opts, live.WithSocketWrapper(tr.socketWrapper()))
	}
	d, err := live.NewDriver(loopbackAddrs(nPaths), opts...)
	if err != nil {
		return nil, err
	}
	var nw core.DatagramSender = d
	if tr != nil {
		nw = tr.server.wrap(d, wall.Elapsed)
		cfg.Tracer = &tr.server.events
	}
	s := &liveServer{d: d, done: make(chan error, 1)}
	s.lis = core.Listen(nw, cfg, d.LocalAddrs())
	apps.NewGetServer(s.lis)
	if tr != nil {
		// Runs on the server's run loop when the client's
		// CONNECTION_CLOSE arrives: the one moment the sender-side
		// state of a transfer is final and safe to read.
		s.lis.OnConnection(func(c *core.Conn) {
			c.OnClosed(func(error) { tr.server.conns.observeServer(c) })
		})
	}
	go func() { s.done <- d.Run(nil) }()
	return s, nil
}

// stop closes the server and waits for its loop to end.
func (s *liveServer) stop() {
	s.d.Close()
	<-s.done
}

func loopbackAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return addrs
}

// liveWorkload is a closed loop of sequential GETs over host loopback:
// one connection at a time, fresh client sockets and connection each.
type liveWorkload struct {
	nPaths int
	size   uint64
	warmup uint64
	seed   uint64
	cfg    core.Config
	tr     *tracer

	plain  *liveServer
	traced *liveServer // only on a traced run
	nextID uint64
}

func newLive(nPaths int, size uint64, p params, seed uint64, tr *tracer) (*liveWorkload, error) {
	cfg := core.DefaultConfig()
	if nPaths == 1 {
		cfg = core.DefaultSinglePathConfig()
	}
	cfg.MaxPaths = nPaths
	cfg.WireSerialization = true
	cfg.EnableCrypto = true
	cfg.HandshakeSeed = liveHandshakeSeed
	cfg.IdleTimeout = 30 * time.Second
	w := &liveWorkload{
		nPaths: nPaths,
		size:   jitteredSize(size, seed),
		warmup: p.warmSize,
		seed:   seed,
		cfg:    cfg,
		tr:     tr,
	}
	var err error
	if w.plain, err = startServer(nPaths, cfg, nil); err != nil {
		return nil, udpError(err)
	}
	if tr != nil {
		if w.traced, err = startServer(nPaths, cfg, tr); err != nil {
			w.plain.stop()
			return nil, udpError(err)
		}
	}
	return w, nil
}

// errUDPDenied marks a set-up failure caused by the environment
// refusing UDP sockets, so the smoke test can skip instead of fail.
var errUDPDenied = errors.New("UDP sockets unavailable in this environment")

func udpError(err error) error {
	if errors.Is(err, os.ErrPermission) || strings.Contains(err.Error(), "not permitted") ||
		strings.Contains(err.Error(), "permission denied") {
		return fmt.Errorf("%w: %v", errUDPDenied, err)
	}
	return err
}

func (w *liveWorkload) cycle() int { return 1 }

func (w *liveWorkload) warm() error {
	_, err := w.get(w.warmup, false)
	return err
}

func (w *liveWorkload) run(_ int, traced bool) (unitResult, error) {
	return w.get(w.size, traced)
}

// get downloads size bytes over a fresh client driver and connection
// and checks the delivery.
func (w *liveWorkload) get(size uint64, traced bool) (unitResult, error) {
	server := w.plain
	var opts []live.Option
	if traced {
		server = w.traced
		opts = append(opts, live.WithSocketWrapper(w.tr.socketWrapper()))
	}
	d, err := live.NewDriver(loopbackAddrs(w.nPaths), opts...)
	if err != nil {
		return unitResult{}, udpError(err)
	}
	defer d.Close()

	cfg := w.cfg
	var nw core.DatagramSender = d
	if traced {
		w.tr.beginTransfer(transferInfo{handshakeSeed: cfg.HandshakeSeed, multipath: cfg.Multipath, crypto: true})
		nw = w.tr.client.wrap(d, wall.Elapsed)
		cfg.Tracer = &w.tr.client.events
	}
	// Connection IDs are distinct per seed and per transfer.
	w.nextID++
	conn := core.Dial(nw, cfg, core.NewConnID(w.seed<<32|w.nextID), d.LocalAddrs(), server.d.LocalAddrs())
	res, err := live.Download(d, conn, size, liveDeadline)

	var ur unitResult
	var recvd uint64
	if s := conn.StreamByID(core.FirstClientStream); s != nil {
		recvd = s.BytesReceived()
	}
	if err == nil && (res.Size != size || recvd != size) {
		err = fmt.Errorf("short delivery: %d of %d bytes", recvd, size)
	}
	if err == nil {
		ur.payload = size
		ur.packets = conn.Stats.PacketsReceived
	}
	if traced {
		w.tr.client.conns.observeClient(conn)
		if err == nil {
			w.tr.client.conns.handshakeMs = append(w.tr.client.conns.handshakeMs,
				(res.HandshakeDone-res.Start).Seconds()*1e3)
		}
		w.tr.drivers.add(d.Stats)
	}
	// Tell the server the transfer is over, so it releases the
	// connection (and, traced, records its final state).
	conn.Close()
	if ferr := d.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("flushing close: %w", ferr)
	}
	if traced {
		w.tr.endTransfer(recvd)
	}
	return ur, err
}

func (w *liveWorkload) after() error { return nil }

func (w *liveWorkload) finish() {
	w.plain.stop()
	if w.traced == nil {
		return
	}
	w.traced.stop()
	// The server loop has ended: its side of the tracer is now ours.
	// Connections whose CONNECTION_CLOSE was lost never reported.
	for _, c := range w.traced.lis.Conns() {
		if !c.Closed() {
			w.tr.server.conns.observeServer(c)
		}
	}
	w.tr.drivers.rcvDrops += w.traced.d.Stats.RcvQueueDrops
}
