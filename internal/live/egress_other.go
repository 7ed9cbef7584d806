//go:build !linux || !(amd64 || arm64)

package live

// Builds without sendmmsg(2) write one datagram per call: writeBatch's
// per-datagram loop takes every batch.

type mmsgBatch struct{}

type sockWriter struct{ box *connBox }

func (w *sockWriter) bind(box *connBox, _ *mmsgBatch) { w.box = box }

// sendBatch settles nothing; the caller writes the batch one by one.
func (d *Driver) sendBatch(*pathSocket) int { return 0 }
