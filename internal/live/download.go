package live

import (
	"context"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/sim"
)

// Download runs a blocking GET of size bytes on the client connection
// over the live driver: it arms the transfer, drives the loop until
// completion, and returns the result. Timestamps inside the result
// are sim times, i.e. wall-derived durations since the driver's
// epoch. deadline bounds the transfer in wall time (<= 0 means no
// deadline); exceeding it returns apps.ErrTimeout, and a connection
// that dies first returns *apps.AbortError.
func Download(d *Driver, client *core.Conn, size uint64, deadline time.Duration) (apps.GetResult, error) {
	return DownloadWith(context.Background(), d, client, size, deadline)
}

// DownloadWith is Download under a context: once ctx is done the loop
// wakes and DownloadWith returns ctx.Err(). The calling goroutine
// becomes the run-loop: it arms the transfer on the driver's clock and
// then drives Run to completion itself.
//
//mpq:entry run-loop
func DownloadWith(ctx context.Context, d *Driver, client *core.Conn, size uint64, deadline time.Duration) (apps.GetResult, error) {
	now := func() time.Duration { return d.clock.Now().Duration() }
	get := apps.NewGetClient(client, size, now, nil)
	timedOut := false
	if deadline > 0 {
		// The deadline is a sim timer: wall deadlines and protocol
		// timers share one timebase in live mode. Stopped on return, so
		// the driver's next Run does not wake for this transfer's.
		t := sim.NewTimer(d.clock, func() { timedOut = true })
		t.ResetAfter(deadline)
		defer t.Stop()
	}
	// Unblock the loop so until() re-runs.
	stop := context.AfterFunc(ctx, d.Wake)
	defer stop()
	err := d.Run(func() bool {
		return get.Done() || timedOut || client.Closed() || ctx.Err() != nil
	})
	if err != nil {
		return apps.GetResult{}, err
	}
	if !get.Done() && ctx.Err() != nil {
		return apps.GetResult{}, ctx.Err()
	}
	return get.Outcome()
}
