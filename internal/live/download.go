package live

import (
	"errors"
	"sync/atomic"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
)

// ErrCanceled is returned by DownloadWith when the Cancel channel
// fires before the transfer completes. Callers holding the context
// that produced the channel wrap this into their own typed error.
var ErrCanceled = errors.New("live: download canceled")

// DownloadOpts tunes DownloadWith.
type DownloadOpts struct {
	// Deadline bounds the transfer in wall time (<= 0 means no
	// deadline); exceeding it returns apps.ErrTimeout.
	Deadline time.Duration
	// Cancel aborts the transfer when it becomes readable (typically a
	// context's Done channel); DownloadWith then returns ErrCanceled.
	Cancel <-chan struct{}
}

// Download runs a blocking GET of size bytes on the client connection
// over the live driver: it arms the transfer, drives the loop until
// completion, and returns the result. Timestamps inside the result
// are sim times, i.e. wall-derived durations since the driver's
// epoch. deadline bounds the transfer in wall time (<= 0 means no
// deadline); exceeding it returns apps.ErrTimeout, and a connection
// that dies first returns *apps.AbortError.
func Download(d *Driver, client *core.Conn, size uint64, deadline time.Duration) (apps.GetResult, error) {
	return DownloadWith(d, client, size, DownloadOpts{Deadline: deadline})
}

// DownloadWith is Download with explicit options (deadline plus
// cancellation). The calling goroutine becomes the run-loop: it arms
// the transfer on the driver's clock and then drives Run to
// completion itself.
//
//mpq:entry run-loop
func DownloadWith(d *Driver, client *core.Conn, size uint64, opts DownloadOpts) (apps.GetResult, error) {
	now := func() time.Duration { return d.clock.Now().Duration() }
	get := apps.NewGetClient(client, size, now, nil)
	timedOut := false
	if opts.Deadline > 0 {
		// The deadline is a plain sim event: wall deadlines and
		// protocol timers share one timebase in live mode.
		d.clock.At(d.clock.Now().Add(opts.Deadline), func() { timedOut = true })
	}
	var canceled atomic.Bool
	if opts.Cancel != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-opts.Cancel:
				canceled.Store(true)
				d.Wake() // unblock the loop so until() re-runs
			case <-stop:
			}
		}()
	}
	err := d.Run(func() bool {
		return get.Done() || timedOut || client.Closed() || canceled.Load()
	})
	if err != nil {
		return apps.GetResult{}, err
	}
	if !get.Done() && canceled.Load() {
		return apps.GetResult{}, ErrCanceled
	}
	return get.Outcome()
}
