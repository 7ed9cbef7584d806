package live

import "syscall"

// sysSENDMMSG is sendmmsg(2) on linux/arm64.
const sysSENDMMSG = syscall.SYS_SENDMMSG
