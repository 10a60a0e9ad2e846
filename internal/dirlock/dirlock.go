// Package dirlock gives a data directory one owner: the store that opens it
// takes an exclusive lock on a file named lock inside it, and a second open
// of the directory, in this process or another, fails until the first store
// is closed. The kernel drops the lock when its process dies, so a crash
// leaves nothing stale to clean up (Prometheus' tsdb/fileutil does the same).
package dirlock

import (
	"fmt"
	"os"
	"path/filepath"
)

// File is the name of the lock file in a locked directory. Stores that list
// their directory skip it.
const File = "lock"

// Lock is a held directory lock.
type Lock struct{ f *os.File }

// Acquire locks dir, which must exist. It fails at once, naming dir, when
// another open holds the lock.
func Acquire(dir string) (*Lock, error) {
	f, err := os.OpenFile(filepath.Join(dir, File), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lock %s: %w", dir, err)
	}
	if err := flock(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s is in use by another open store: %w", dir, err)
	}
	return &Lock{f: f}, nil
}

// Release drops the lock. It is a no-op on a nil or released Lock.
func (l *Lock) Release() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
