package relstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// appendWALLocked writes one WAL record; caller holds db.mu. Memory-only
// stores skip the WAL entirely.
func (db *DB) appendWALLocked(rec walRecord) error {
	if db.walF == nil {
		return nil
	}
	db.seq++
	rec.Seq = db.seq
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := db.walF.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("relstore: wal append: %w", err)
	}
	db.walN++
	return nil
}

// snapshot is the on-disk checkpoint format.
type snapshot struct {
	Seq    uint64               `json:"seq"`
	Tables map[string]snapTable `json:"tables"`
}

type snapTable struct {
	Schema Schema         `json:"schema"`
	Rows   map[string]Row `json:"rows"`
}

// Checkpoint writes a full snapshot and truncates the WAL. It is the
// equivalent of a SQLite WAL checkpoint and also serves as the "in-built
// punctual backup solution" of the CEEMS API server when pointed at a
// backup directory via the replica. The snapshot is fsynced into place
// (file and directory) before the WAL is truncated: a crash between the
// two steps must find either the old WAL or the complete new snapshot on
// stable storage, never neither.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.dir == "" {
		return nil
	}
	if err := db.writeSnapshotLocked(filepath.Join(db.dir, snapshotFile)); err != nil {
		return err
	}
	// Truncate the WAL: close, recreate.
	if db.walF != nil {
		if err := db.walF.Close(); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(filepath.Join(db.dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	db.walF = f
	db.walN = 0
	return nil
}

// WALRecords returns the number of records in the current WAL segment.
func (db *DB) WALRecords() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.walN
}

func (db *DB) writeSnapshotLocked(path string) error {
	snap := snapshot{Seq: db.seq, Tables: map[string]snapTable{}}
	for name, t := range db.tables {
		snap.Tables[name] = snapTable{Schema: t.schema, Rows: t.rows}
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(&snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// The snapshot replaces the WAL as the source of truth the moment the
	// rename lands; it must be on disk — not in the page cache — before
	// that, and the rename itself must be durable before the caller
	// truncates the WAL.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so renames inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (db *DB) loadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("relstore: corrupt snapshot: %w", err)
	}
	db.seq = snap.Seq
	for name, st := range snap.Tables {
		if err := st.Schema.Validate(); err != nil {
			return fmt.Errorf("relstore: snapshot table %s: %w", name, err)
		}
		t := db.adoptLocked(st.Schema)
		for pk, row := range st.Rows {
			norm, err := normalizeRow(st.Schema, row)
			if err != nil {
				return fmt.Errorf("relstore: snapshot row %s/%s: %w", name, pk, err)
			}
			db.upsertLocked(t, pk, norm)
		}
	}
	return nil
}

// replayWAL applies WAL records on top of the loaded snapshot and returns
// the length of the records it read whole. Records at or before the
// snapshot sequence are skipped; a torn tail — a last line short of its
// newline, or one that does not parse — ends the replay.
func (db *DB) replayWAL(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for whole := int64(0); ; {
		line, err := r.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return 0, err
		}
		var rec walRecord
		if err == io.EOF || json.Unmarshal(line, &rec) != nil {
			return whole, nil
		}
		whole += int64(len(line))
		if rec.Seq <= db.seq {
			continue
		}
		db.seq = rec.Seq
		db.walN++
		t := db.tables[rec.Table]
		switch {
		case rec.Op == "create" && rec.Schema != nil && rec.Schema.Validate() == nil:
			db.adoptLocked(*rec.Schema)
		case rec.Op == "upsert" && t != nil:
			if norm, err := normalizeRow(t.schema, rec.Row); err == nil {
				db.upsertLocked(t, rec.PK, norm)
			}
		case rec.Op == "delete" && t != nil:
			t.unindex(rec.PK)
			delete(t.rows, rec.PK)
		}
	}
}

// normalizeRow coerces the values of a row to the schema's column types,
// undoing JSON's; a column the schema lacks is an error.
func normalizeRow(s Schema, row Row) (Row, error) {
	out := make(Row, len(row))
	for _, c := range s.Columns {
		v, ok := row[c.Name]
		if !ok {
			continue
		}
		nv, err := normalize(c.Type, v)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: %w", s.Name, c.Name, err)
		}
		out[c.Name] = nv
	}
	for k := range row {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("%s: unknown column %q", s.Name, k)
		}
	}
	return out, nil
}
