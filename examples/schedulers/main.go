// Schedulers: compare the paper's lowest-RTT scheduler (with and
// without its duplication phase) against round-robin and the
// BLEST-inspired extension on a heterogeneous two-path network.
//
//	go run ./examples/schedulers
package main

import (
	"fmt"
	"time"

	"mpquic"
)

func run(sched mpquic.Config) time.Duration {
	net := mpquic.NewTwoPathNetwork(mpquic.TwoPathConfig{
		Path0: mpquic.PathSpec{CapacityMbps: 15, RTT: 20 * time.Millisecond, QueueDelay: 60 * time.Millisecond},
		Path1: mpquic.PathSpec{CapacityMbps: 4, RTT: 120 * time.Millisecond, QueueDelay: 150 * time.Millisecond},
		Seed:  9,
	})
	server := net.Listen(sched)
	net.ServeGet(server)
	client := net.Dial(sched, 123)
	res, err := net.Download(client, 8<<20)
	if err != nil {
		return 0
	}
	return res.Elapsed()
}

func main() {
	base := mpquic.DefaultConfig()

	noDup := base
	noDup.Scheduler = mpquic.SchedLowestRTTNoDup

	rr := base
	rr.Scheduler = mpquic.SchedRoundRobin

	blest := base
	blest.Scheduler = mpquic.SchedBLEST

	fmt.Println("GET 8 MB over 15 Mbps/20 ms + 4 Mbps/120 ms:")
	for _, v := range []struct {
		name string
		cfg  mpquic.Config
	}{
		{"lowest-RTT + duplication (paper default)", base},
		{"lowest-RTT, no duplication", noDup},
		{"round-robin", rr},
		{"BLEST-inspired (extension)", blest},
	} {
		el := run(v.cfg)
		if el == 0 {
			fmt.Printf("  %-42s did not complete\n", v.name)
			continue
		}
		fmt.Printf("  %-42s %8v  (%.2f Mbps)\n", v.name,
			el.Round(time.Millisecond), float64(8<<20)*8/el.Seconds()/1e6)
	}
}
