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
	if c := h.client; !c.FinQueued || !c.FinAcked() || c.cumAcked < c.Written {
		t.Fatal("client data not fully acked")
	}
}

func TestTCPDupAcksDoNotInflateWindowAccounting(t *testing.T) {
	h := newTCPHarness(t, DefaultConfig(), link10M(20*time.Millisecond))
	ServeGet(h.lis, 512<<10)
	res := get(h.client, h.clock, 512<<10)
	h.run(t, 30*time.Second)
	if res.Size == 0 {
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
