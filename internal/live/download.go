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
//
//mpq:entry
func Download(d *Driver, client *core.Conn, size uint64, deadline time.Duration) (apps.GetResult, error) {
	now := func() time.Duration { return d.clock.Now().Duration() }
	get := apps.NewGetClient(client, size, now, nil)
	done := func() bool { return get.Done() || client.Closed() }
	if err := d.DriveUntil(context.Background(), deadline, done); err != nil {
		return apps.GetResult{}, err
	}
	return get.Outcome()
}

// DriveUntil is the live backend's transfer step: the calling goroutine
// becomes the run-loop and drives Run until done() holds, deadline of
// wall time has passed (<= 0 means no deadline) or ctx is done. It
// returns Run's error, or ctx.Err() when ctx ended the drive with
// done() still false; a deadline is not an error — the caller asks
// whatever it was waiting for how it ended.
//
//mpq:entry
func (d *Driver) DriveUntil(ctx context.Context, deadline time.Duration, done func() bool) error {
	timedOut := false
	if deadline > 0 {
		// The deadline is a sim timer: wall deadlines and protocol
		// timers share one timebase in live mode. Stopped on return, so
		// the driver's next Run does not wake for this drive's.
		t := sim.NewTimer(d.clock, func() { timedOut = true })
		t.ResetAfter(deadline)
		defer t.Stop()
	}
	// Unblock the loop so until() re-runs.
	stop := context.AfterFunc(ctx, d.Wake)
	defer stop()
	err := d.Run(func() bool { return done() || timedOut || ctx.Err() != nil })
	if err == nil && !done() {
		err = ctx.Err()
	}
	return err
}
