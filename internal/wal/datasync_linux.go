package wal

import (
	"os"
	"syscall"
)

// datasync is fdatasync(2): it forces f's data and only the metadata a read
// needs, so a write over blocks the file has commits no journal.
func datasync(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		for serr = syscall.EINTR; serr == syscall.EINTR; {
			serr = syscall.Fdatasync(int(fd))
		}
	}); err != nil {
		return err
	}
	return os.NewSyscallError("fdatasync", serr)
}
