package mpquic

import (
	"testing"
	"time"
)

func twoPath(seed uint64) *Network {
	return NewTwoPathNetwork(TwoPathConfig{
		Path0: PathSpec{CapacityMbps: 10, RTT: 30 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		Path1: PathSpec{CapacityMbps: 10, RTT: 40 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		Seed:  seed,
	})
}

// download runs a GET and fails the test on any error.
func download(t *testing.T, net *Network, client *Conn, size uint64) GetResult {
	t.Helper()
	res, err := net.Download(client, size)
	if err != nil {
		t.Fatalf("download failed: %v", err)
	}
	return res
}

func TestFacadeDownload(t *testing.T) {
	net := twoPath(1)
	server := net.Listen(DefaultConfig())
	net.ServeGet(server)
	client := net.Dial(DefaultConfig(), 1)
	res := download(t, net, client, 4<<20)
	if res.GoodputBps() < 10e6 {
		t.Fatalf("no aggregation through the facade: %.2f Mbps", res.GoodputBps()/1e6)
	}
	if len(client.Paths()) != 2 {
		t.Fatalf("%d paths", len(client.Paths()))
	}
}

func TestFacadeSinglePath(t *testing.T) {
	net := twoPath(2)
	server := net.Listen(SinglePathConfig())
	net.ServeGet(server)
	client := net.Dial(SinglePathConfig(), 2)
	res := download(t, net, client, 1<<20)
	if len(client.Paths()) != 1 {
		t.Fatalf("%d paths on single-path config", len(client.Paths()))
	}
	if res.GoodputBps() > 10e6 {
		t.Fatalf("single path exceeding link capacity: %.2f Mbps", res.GoodputBps()/1e6)
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() time.Duration {
		net := twoPath(7)
		server := net.Listen(DefaultConfig())
		net.ServeGet(server)
		client := net.Dial(DefaultConfig(), 7)
		return download(t, net, client, 2<<20).Elapsed()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different results: %v vs %v", a, b)
	}
}

func TestFacadeHandoverTrain(t *testing.T) {
	net := twoPath(3)
	server := net.Listen(DefaultConfig())
	net.ServeEcho(server)
	client := net.Dial(DefaultConfig(), 3)
	train := net.StartRequestTrain(client, 5*time.Second)
	net.At(2*time.Second, func() { net.KillPath(0) })
	if err := net.RunFor(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(train.Samples()) < 10 {
		t.Fatalf("only %d samples", len(train.Samples()))
	}
}

func TestFacadeDialPartialWithAdvertise(t *testing.T) {
	net := twoPath(4)
	cfg := DefaultConfig()
	cfg.AdvertiseAddresses = true
	server := net.Listen(cfg)
	net.ServeGet(server)
	client := net.DialPartial(DefaultConfig(), 4)
	download(t, net, client, 2<<20)
	if len(client.Paths()) != 2 {
		t.Fatalf("ADD_ADDRESS did not open the second path (%d paths)", len(client.Paths()))
	}
}

func TestFacadeAddressAccessors(t *testing.T) {
	net := twoPath(5)
	if net.tp.ClientAddrs[0] == "" || net.ServerAddr(1) == "" {
		t.Fatal("empty addresses")
	}
	if net.ServerAddr(0) == net.ServerAddr(1) {
		t.Fatal("interfaces not distinct")
	}
	if net.Now() != 0 {
		t.Fatal("fresh network clock not at epoch")
	}
}

func TestFacadeSchedulerAndCCVariants(t *testing.T) {
	for _, v := range []struct {
		name string
		mut  func(*Config)
	}{
		{"blest", func(c *Config) { c.Scheduler = SchedBLEST }},
		{"round-robin", func(c *Config) { c.Scheduler = SchedRoundRobin }},
		{"lia", func(c *Config) { c.CC = CCLia }},
		{"reno", func(c *Config) { c.CC = CCReno }},
		{"zero-rtt", func(c *Config) { c.ZeroRTT = true }},
		{"tail-reinjection", func(c *Config) { c.TailReinjection = true }},
	} {
		cfg := DefaultConfig()
		v.mut(&cfg)
		net := twoPath(100)
		server := net.Listen(cfg)
		net.ServeGet(server)
		client := net.Dial(cfg, 100)
		download(t, net, client, 1<<20)
	}
}
