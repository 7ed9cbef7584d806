package tcpsim

import (
	"testing"
	"time"
)

func TestTCPHalfCloseDirectionsIndependent(t *testing.T) {
	h := newTCPHarness(t, DefaultConfig(), link10M(20*time.Millisecond))
	// Client closes its write side; the server can still send.
	serverSent := false
	h.lis.OnConnection(func(c *Conn) {
		c.OnData(func() {
			if n := c.Readable(); n > 0 {
				c.Read(n)
			}
			if c.Finished() && !serverSent {
				serverSent = true
				c.WriteSynthetic(50 << 10)
				c.CloseWrite()
			}
		})
	})
	h.client.OnData(func() {
		if n := h.client.Readable(); n > 0 {
			h.client.Read(n)
		}
	})
	h.client.OnEstablished(func() {
		h.client.WriteSynthetic(100)
		h.client.CloseWrite()
	})
	h.run(t, 10*time.Second)
	if !h.client.Finished() {
		t.Fatal("server response did not arrive after client half-close")
	}
	if !h.client.AllAcked() {
		t.Fatal("client data not fully acked")
	}
}

func TestTCPDupAcksDoNotInflateWindowAccounting(t *testing.T) {
	h := newTCPHarness(t, DefaultConfig(), link10M(20*time.Millisecond))
	ServeGet(h.lis, 512<<10)
	var res *GetResult
	GetOverTCP(h.client, 512<<10, func() time.Duration { return h.clock.Now().Duration() },
		func(r GetResult) { res = &r })
	h.run(t, 30*time.Second)
	if res == nil {
		t.Fatal("transfer failed")
	}
	srv := h.lis.Conns()[0]
	// After a complete transfer everything settles: zero in flight.
	if srv.bytesInFlight != 0 {
		t.Fatalf("in-flight accounting leaked: %d", srv.bytesInFlight)
	}
	if srv.liveRtx != 0 {
		t.Fatalf("rtx accounting leaked: %d", srv.liveRtx)
	}
}
