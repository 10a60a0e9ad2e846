package relstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Replica ships the store's snapshot and WAL to a backup directory,
// standing in for Litestream ("SQLite DB can be backed up continuously onto
// long-term storage using Litestream", paper §II.C); api.RunPeriodic calls
// Sync on the backup interval. A backup is point-in-time consistent: the WAL
// segment is copied after the snapshot, and restore replays it on top.
type Replica struct {
	DB  *DB
	Dir string

	syncs int
}

// Sync copies the current snapshot and WAL into the backup directory. The
// source DB checkpoint is NOT forced; the copy pairs the last snapshot with
// the WAL records accumulated since, exactly like Litestream's
// generation+WAL shipping.
func (r *Replica) Sync() error {
	if r.DB.dir == "" {
		return fmt.Errorf("relstore: cannot replicate a memory-only store")
	}
	if err := os.MkdirAll(r.Dir, 0o755); err != nil {
		return err
	}
	// Snapshot may not exist yet (no checkpoint taken); that is fine as
	// long as the WAL carries everything.
	src := filepath.Join(r.DB.dir, snapshotFile)
	if _, err := os.Stat(src); err == nil {
		if err := copyFile(src, filepath.Join(r.Dir, snapshotFile)); err != nil {
			return err
		}
	}
	// Copy WAL under the read lock so no write tears the tail.
	r.DB.mu.RLock()
	err := copyFile(filepath.Join(r.DB.dir, walFile), filepath.Join(r.Dir, walFile))
	r.DB.mu.RUnlock()
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	r.syncs++
	return nil
}

// Syncs returns how many successful sync passes have completed.
func (r *Replica) Syncs() int { return r.syncs }

// Restore opens a store reconstructed from a backup directory produced by
// Sync. The restored store lives in restoreDir.
func Restore(backupDir, restoreDir string) (*DB, error) {
	if err := os.MkdirAll(restoreDir, 0o755); err != nil {
		return nil, err
	}
	for _, name := range []string{snapshotFile, walFile} {
		src := filepath.Join(backupDir, name)
		if _, err := os.Stat(src); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		if err := copyFile(src, filepath.Join(restoreDir, name)); err != nil {
			return nil, err
		}
	}
	return Open(restoreDir)
}

// copyFile replaces dst with a copy of src durably: the copy is fsynced
// before the rename and the directory after it (the sequence
// writeSnapshotLocked uses), so a backup Sync reported is on disk whole.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	tmp := dst + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		os.Remove(tmp)
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		os.Remove(tmp)
		return err
	}
	if err := out.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		return err
	}
	return syncDir(filepath.Dir(dst))
}
