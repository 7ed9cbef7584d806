package live

import (
	"errors"
	"net"
	"syscall"
)

// SetNoCheck turns UDP checksums off on socket i's conn (SO_NO_CHECK).
// A kernel then refuses every UDP_SEGMENT send on it with EINVAL,
// while single datagrams still go out.
func SetNoCheck(d *Driver, i int) error {
	uc, ok := d.socks[i].loadConn().(*net.UDPConn)
	if !ok {
		return errors.New("socket is wrapped")
	}
	raw, err := uc.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := raw.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil {
		return err
	}
	return serr
}
