//go:build !linux && !darwin

package dirlock

import "os"

// flock is a no-op on platforms without the syscall: the directory is not
// guarded there.
func flock(*os.File) error { return nil }
