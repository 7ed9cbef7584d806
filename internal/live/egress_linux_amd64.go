package live

// sysSENDMMSG is sendmmsg(2) on linux/amd64; the syscall package
// exports the number for arm64 but not for amd64.
const sysSENDMMSG = 307
