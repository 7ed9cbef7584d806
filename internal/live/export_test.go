package live

// WriterFollowsConn reports whether socket i's egress writer is bound
// to the conn the socket holds now. The writer rebinds on the first
// flush after a rebind swapped the conn.
func WriterFollowsConn(d *Driver, i int) bool {
	return d.socks[i].w.box == d.socks[i].conn.Load()
}
