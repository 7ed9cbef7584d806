// Command mpq-live runs the MPQUIC stack over real UDP sockets — the
// same protocol core the simulator drives, attached to a wall clock
// and the kernel's network stack. It is an application of the facade:
// both roles are mpquic.NewLiveWith plus the Fabric calls any other
// caller would make.
//
// Server (serves N-byte GETs on one socket per path address):
//
//	mpq-live -server -listen 127.0.0.1:4433,127.0.0.1:4434
//
// Client (downloads -size bytes over one path per -connect address):
//
//	mpq-live -connect 127.0.0.1:4433,127.0.0.1:4434 -size 10000000
//
// The client prints RunMetrics-equivalent output: handshake time,
// transfer time, goodput, and per-path bytes, cwnd and smoothed RTT.
// -json emits the same metrics as a single JSON object for scripts.
// -qlog writes a qlog JSON-SEQ trace of the endpoint (timestamps are
// wall-derived: sim time in live mode is elapsed wall time since the
// driver loop started).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mpquic"
	"mpquic/internal/faultnet"
	"mpquic/internal/live"
	"mpquic/internal/perf"
	"mpquic/internal/trace"
)

var (
	server  = flag.Bool("server", false, "run as server (serve GETs until interrupted)")
	listen  = flag.String("listen", "127.0.0.1:4433", "server: comma-separated local addresses, one per path")
	connect = flag.String("connect", "", "client: comma-separated server addresses, one per path")
	local   = flag.String("local", "", "client: comma-separated local addresses (default 127.0.0.1:0 per path)")
	size    = flag.Uint64("size", 10<<20, "client: transfer size in bytes")
	timeout = flag.Duration("timeout", 60*time.Second, "client: wall deadline for the transfer (0 = mpquic.DefaultLiveDeadline)")
	idle    = flag.Duration("idle", 30*time.Second, "connection idle timeout")
	crypto  = flag.Bool("crypto", true, "AEAD-protect packets")
	qlog    = flag.String("qlog", "", "write a qlog JSON-SEQ trace to this file")
	jsonOut = flag.Bool("json", false, "client: print metrics as one JSON object")
	once    = flag.Bool("once", false, "server: exit after the first connection closes")
	wantAgg = flag.Bool("expect-aggregation", false,
		"client: exit nonzero unless every path carried data and the aggregate beats the best single path")
	coalesce = flag.Duration("coalesce", live.DefaultCoalesce,
		"wake-up coalescing granularity (0 disables; quantizes timer wake-ups and their qlog timestamps)")
	sockBuf = flag.Int("sockbuf", live.DefaultSocketBuffer,
		"SO_RCVBUF/SO_SNDBUF request per UDP socket in bytes (0 keeps the OS default)")
	chaos = flag.String("chaos", "",
		"deterministic socket-fault spec, e.g. 'seed=42;drop=0.01;kill@200ms:1;blackhole@1s+500ms:0' (see internal/faultnet)")
	rebindMax = flag.Int("rebind-max", live.DefaultRebindMax,
		"rebind attempts per degraded socket before its path is abandoned (0 disables self-healing)")
	rebindBackoff = flag.Duration("rebind-backoff", live.DefaultRebindBackoff,
		"first rebind delay; attempt k waits backoff<<min(k,6)")
)

func main() {
	flag.Parse()
	if !*server && *connect == "" {
		fmt.Fprintln(os.Stderr, "mpq-live: need -server or -connect (see -h)")
		os.Exit(2)
	}
	opts := []mpquic.LiveOption{
		mpquic.WithCoalesce(*coalesce),
		mpquic.WithSocketBuffer(*sockBuf),
		mpquic.WithRebind(*rebindMax, *rebindBackoff),
	}
	if *chaos != "" {
		opt, err := chaosOption(*chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpq-live: -chaos:", err)
			os.Exit(2)
		}
		opts = append(opts, opt)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "mpq-live:", err)
		os.Exit(1)
	}
}

// run binds the role's sockets, opens its qlog and plays the role. The
// engine configuration is the same for both: multipath tracks the
// number of bound addresses; the facade adds what real sockets require.
func run(opts []mpquic.LiveOption) (err error) {
	role, addrs, play := "server", splitAddrs(*listen), runServer
	if !*server {
		remotes := splitAddrs(*connect)
		role, addrs = "client", splitAddrs(*local)
		if len(addrs) == 0 {
			for range remotes {
				addrs = append(addrs, "127.0.0.1:0")
			}
		}
		if len(addrs) != len(remotes) {
			return fmt.Errorf("need one -local address per -connect address (%d vs %d)", len(addrs), len(remotes))
		}
		play = func(ln *mpquic.LiveNetwork, cfg mpquic.Config) error { return runClient(ln, cfg, remotes) }
	}
	ln, err := mpquic.NewLiveWith(addrs, opts...)
	if err != nil {
		return err
	}
	defer ln.Close()

	cfg := mpquic.DefaultConfig()
	if len(addrs) == 1 {
		cfg = mpquic.SinglePathConfig()
	}
	cfg.MaxPaths = len(addrs)
	cfg.EnableCrypto = *crypto
	cfg.IdleTimeout = *idle
	if *qlog != "" {
		f, err := os.Create(*qlog)
		if err != nil {
			return err
		}
		q := trace.NewQlog(f, role)
		cfg.Tracer = q
		// A trace cut short is reported even when the transfer worked.
		defer func() {
			if cerr := errors.Join(q.Err(), f.Close()); err == nil {
				err = cerr
			}
		}()
	}
	return play(ln, cfg)
}

// chaosOption compiles a -chaos spec into a driver option: a seeded
// fault injector wrapped around every socket the driver binds. Scripted
// events fire against a wall-anchored stopwatch started here — the
// CLI reaches wall time through internal/perf, the audited package,
// so the walltime analyzer holds for cmd/ (see internal/analysis).
func chaosOption(spec string) (mpquic.LiveOption, error) {
	seed, rates, script, err := faultnet.Parse(spec)
	if err != nil {
		return nil, err
	}
	opts := []faultnet.Option{faultnet.WithRates(rates)}
	if len(script.Events) > 0 {
		sw := perf.NewStopwatch()
		opts = append(opts, faultnet.WithClock(sw.Elapsed), faultnet.WithScript(script))
	}
	inj := faultnet.New(seed, opts...)
	return mpquic.WithSocketWrapper(func(path int, c mpquic.UDPConn) mpquic.UDPConn {
		return inj.Wrap(path, c)
	}), nil
}

// splitAddrs splits a comma-separated address list.
func splitAddrs(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
}

func runServer(ln *mpquic.LiveNetwork, cfg mpquic.Config) error {
	lis := ln.Listen(cfg)
	ln.ServeGet(lis)
	// Connection lifecycle logging, plus the -once exit condition.
	accepted, closed := 0, 0
	lis.OnConnection(func(c *mpquic.Conn) {
		accepted++
		fmt.Fprintf(os.Stderr, "accepted connection %d\n", accepted)
		c.OnClosed(func(error) { closed++ })
	})

	// The bound addresses (port 0 resolves here) go to stdout so a
	// wrapper script can read them before pointing clients at us.
	fmt.Printf("listening %s\n", strings.Join(ln.LocalAddrs(), ","))

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		ln.Close()
	}()

	// Serve runs until Close; -once needs the loop's own stop condition,
	// which only the driver takes.
	serve := ln.Serve
	if *once {
		serve = func() error { return ln.Driver().Run(func() bool { return closed > 0 }) }
	}
	if err := serve(); err != nil && !errors.Is(err, mpquic.ErrClosed) {
		return err // ErrClosed is the interrupt: a clean exit for a server
	}
	ln.Driver().Flush() // any final CONNECTION_CLOSE queued after the loop ended
	return nil
}

// clientMetrics is the RunMetrics-equivalent report for a live
// transfer. Durations are wall-derived sim times (seconds).
type clientMetrics struct {
	Size          uint64        `json:"size_bytes"`
	HandshakeSecs float64       `json:"handshake_s"`
	TransferSecs  float64       `json:"transfer_s"`
	GoodputMbps   float64       `json:"goodput_mbps"`
	AggregateMbps float64       `json:"aggregate_mbps"`
	BestPathMbps  float64       `json:"best_path_mbps"`
	Paths         []pathMetrics `json:"paths"`
	// The driver's counters, flattened into the object: ingress
	// batching, kernel receive-queue drops, the socket health ladder
	// (see live.Stats and DESIGN.md, "Live fault tolerance").
	live.Stats
}

type pathMetrics struct {
	ID        uint8   `json:"id"`
	Local     string  `json:"local"`
	Remote    string  `json:"remote"`
	RecvBytes uint64  `json:"recv_bytes"`
	SentBytes uint64  `json:"sent_bytes"`
	CwndBytes int     `json:"cwnd_bytes"`
	SRTTms    float64 `json:"srtt_ms"`
	Mbps      float64 `json:"mbps"`
	// PF reports the path's local §4.3 potentially-failed state at the
	// end of the transfer: true marks the paths the failover steered
	// around. RemotePF mirrors the peer's PF declaration (PATHS frame)
	// — on a download it is the data sender's failover decision, seen
	// from here.
	PF       bool `json:"pf"`
	RemotePF bool `json:"remote_pf"`
}

func runClient(ln *mpquic.LiveNetwork, cfg mpquic.Config, remotes []string) error {
	conn := ln.Dial(cfg, uint64(os.Getpid()), remotes...)
	res, err := ln.DownloadWith(conn, *size, mpquic.DownloadOpts{Deadline: *timeout})
	if err != nil {
		return err
	}

	d := ln.Driver()
	d.UpdateSocketStats()
	m := clientMetrics{
		Size:          res.Size,
		HandshakeSecs: res.HandshakeDone.Seconds(),
		TransferSecs:  res.Elapsed().Seconds(),
		Stats:         d.Stats,
	}
	if s := m.TransferSecs; s > 0 {
		m.GoodputMbps = float64(res.Size) * 8 / s / 1e6
	}
	for _, p := range conn.Paths() {
		pm := pathMetrics{
			ID:        uint8(p.ID),
			Local:     string(p.Local),
			Remote:    string(p.Remote),
			RecvBytes: p.RecvBytes,
			SentBytes: p.SentBytes,
			CwndBytes: p.CC().Cwnd(),
			SRTTms:    float64(p.RTT().SmoothedRTT()) / float64(time.Millisecond),
			PF:        p.PotentiallyFailed(),
			RemotePF:  p.RemotePF(),
		}
		if s := m.TransferSecs; s > 0 {
			pm.Mbps = float64(p.RecvBytes) * 8 / s / 1e6
		}
		// AggregateMbps sums raw per-path arrival rates (retransmits
		// included) so "aggregate vs best single path" compares like
		// with like; GoodputMbps is application bytes only.
		m.AggregateMbps += pm.Mbps
		if pm.Mbps > m.BestPathMbps {
			m.BestPathMbps = pm.Mbps
		}
		m.Paths = append(m.Paths, pm)
	}

	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(m); err != nil {
			return err
		}
	} else {
		printMetrics(m)
	}
	conn.Close()
	d.Flush() // deliver the CONNECTION_CLOSE before the socket drops
	if *wantAgg {
		return checkAggregation(m)
	}
	return nil
}

// checkAggregation enforces the multipath benefit the smoke harness
// asserts: every path carried data, and the summed per-path rate beats
// the best single path.
func checkAggregation(m clientMetrics) error {
	if len(m.Paths) < 2 {
		return fmt.Errorf("aggregation check: only %d path(s)", len(m.Paths))
	}
	for _, p := range m.Paths {
		if p.RecvBytes == 0 {
			return fmt.Errorf("aggregation check: path %d carried no data", p.ID)
		}
	}
	if m.AggregateMbps <= m.BestPathMbps {
		return fmt.Errorf("aggregation check: aggregate %.2f Mbps does not beat best path %.2f Mbps",
			m.AggregateMbps, m.BestPathMbps)
	}
	return nil
}

func printMetrics(m clientMetrics) {
	fmt.Printf("transfer     %d bytes in %.3f s (%.2f Mbps goodput)\n", m.Size, m.TransferSecs, m.GoodputMbps)
	fmt.Printf("handshake    %.1f ms\n", m.HandshakeSecs*1e3)
	fmt.Printf("packets      in %d, out %d\n", m.PacketsIn, m.PacketsOut)
	if m.IngressBatches > 0 {
		fmt.Printf("ingress      %d batches (mean %.1f pkts, max %d), kernel drops %d\n",
			m.IngressBatches, float64(m.PacketsIn)/float64(m.IngressBatches), m.MaxBatch, m.RcvQueueDrops)
	}
	if m.TransientReadErrs+m.Rebinds+m.RebindFailures+m.CorruptDrops+m.PathsFailedLive+m.EgressDiscards > 0 {
		fmt.Printf("faults       transient reads %d, rebinds %d (failed attempts %d), corrupt drops %d, paths failed %d, egress discards %d\n",
			m.TransientReadErrs, m.Rebinds, m.RebindFailures, m.CorruptDrops, m.PathsFailedLive, m.EgressDiscards)
	}
	for _, p := range m.Paths {
		pf := ""
		if p.PF {
			pf = " [pf]"
		}
		if p.RemotePF {
			pf += " [remote-pf]"
		}
		fmt.Printf("path %d       %s -> %s: recv %d B (%.2f Mbps), sent %d B, cwnd %d B, srtt %.1f ms%s\n",
			p.ID, p.Local, p.Remote, p.RecvBytes, p.Mbps, p.SentBytes, p.CwndBytes, p.SRTTms, pf)
	}
	fmt.Printf("best path    %.2f Mbps of %.2f Mbps aggregate\n", m.BestPathMbps, m.AggregateMbps)
}
