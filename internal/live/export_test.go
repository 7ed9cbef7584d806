package live

// WriterFollowsConn reports whether socket i's egress writer is bound
// to the conn the socket holds now. The writer rebinds on the first
// flush after a rebind swapped the conn.
func WriterFollowsConn(d *Driver, i int) bool {
	return d.writers[i].box == d.binder.socks[i].conn.Load()
}
