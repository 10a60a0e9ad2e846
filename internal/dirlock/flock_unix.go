//go:build linux || darwin

package dirlock

import (
	"os"
	"syscall"
)

// flock takes an exclusive, non-blocking lock on f. Closing f releases it.
func flock(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}
