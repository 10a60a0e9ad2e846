// Package relstore is the embedded relational store backing the CEEMS API
// server, standing in for SQLite (paper §II.D: SQLite was chosen for
// simplicity, no external dependencies, and a single-writer access
// pattern). It provides typed tables with primary keys and secondary
// indexes, predicate queries with ordering and pagination, a JSON
// write-ahead log with snapshot checkpoints for durability, and a
// Litestream-style continuous replica (replica.go).
//
// Like the paper's deployment it enforces the single-writer model: all
// mutations serialize through one lock, while reads proceed concurrently.
package relstore

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dirlock"
	"repro/internal/model"
)

// ColumnType enumerates supported column types.
type ColumnType string

const (
	ColInt   ColumnType = "int"   // int64
	ColFloat ColumnType = "float" // float64
	ColText  ColumnType = "text"  // string
	ColBool  ColumnType = "bool"  // bool
)

// Column defines one table column.
type Column struct {
	Name string     `json:"name"`
	Type ColumnType `json:"type"`
}

// Schema defines a table.
type Schema struct {
	Name       string   `json:"name"`
	Columns    []Column `json:"columns"`
	PrimaryKey string   `json:"primary_key"`
	// Indexes are secondary equality indexes by column name.
	Indexes []string `json:"indexes"`
}

// Validate checks internal consistency.
func (s Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("relstore: table name required")
	}
	cols := map[string]ColumnType{}
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("relstore: table %s: empty column name", s.Name)
		}
		if _, dup := cols[c.Name]; dup {
			return fmt.Errorf("relstore: table %s: duplicate column %s", s.Name, c.Name)
		}
		switch c.Type {
		case ColInt, ColFloat, ColText, ColBool:
		default:
			return fmt.Errorf("relstore: table %s: bad column type %q", s.Name, c.Type)
		}
		cols[c.Name] = c.Type
	}
	if _, ok := cols[s.PrimaryKey]; !ok {
		return fmt.Errorf("relstore: table %s: primary key %q is not a column", s.Name, s.PrimaryKey)
	}
	for _, idx := range s.Indexes {
		if _, ok := cols[idx]; !ok {
			return fmt.Errorf("relstore: table %s: index on unknown column %q", s.Name, idx)
		}
	}
	return nil
}

// Row is one record; values must match the schema column types
// (int64/float64/string/bool).
type Row map[string]any

// Op is a filter comparison operator.
type Op string

const (
	OpEq  Op = "="
	OpNe  Op = "!="
	OpLt  Op = "<"
	OpLe  Op = "<="
	OpGt  Op = ">"
	OpGe  Op = ">="
	OpHas Op = "contains" // substring match on text columns
)

// Cond is one filter condition (ANDed together in Query).
type Cond struct {
	Col string
	Op  Op
	Val any
}

// Query describes a Select.
type Query struct {
	Where   []Cond
	OrderBy string // column name; empty = primary-key order
	Desc    bool
	Limit   int // 0 = unlimited
	Offset  int
}

// DB is the store. Dir == "" keeps everything in memory (used by tests);
// otherwise the WAL and snapshots live under Dir.
type DB struct {
	dir string

	mu     sync.RWMutex
	tables map[string]*table
	walF   *os.File
	walN   int // records in current WAL
	seq    uint64
	lock   *dirlock.Lock // nil for a memory-only store
}

type table struct {
	schema Schema
	rows   map[string]Row
	// indexes: column -> encoded value -> pk set
	indexes map[string]map[string]map[string]struct{}
}

// walRecord is one WAL entry.
type walRecord struct {
	Seq    uint64  `json:"seq"`
	Op     string  `json:"op"` // create|upsert|delete
	Table  string  `json:"table"`
	Schema *Schema `json:"schema,omitempty"`
	PK     string  `json:"pk,omitempty"`
	Row    Row     `json:"row,omitempty"`
}

const (
	snapshotFile = "snapshot.json"
	walFile      = "wal.jsonl"
)

// Open opens (or creates) a store in dir; pass "" for memory-only. A
// directory has one open store at a time: a second Open fails until the
// first is closed.
func Open(dir string) (_ *DB, err error) {
	db := &DB{dir: dir, tables: map[string]*table{}}
	if dir == "" {
		return db, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if db.lock, err = dirlock.Acquire(dir); err != nil {
		return nil, fmt.Errorf("relstore: %w", err)
	}
	defer func() {
		if err != nil {
			db.lock.Release()
		}
	}()
	if err := db.loadSnapshot(filepath.Join(dir, snapshotFile)); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	walPath := filepath.Join(dir, walFile)
	whole, err := db.replayWAL(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// Whatever follows the last whole record (a torn tail) is cut off, so
	// the next record starts a line of its own and later opens replay it.
	if err := f.Truncate(whole); err != nil {
		f.Close()
		return nil, err
	}
	db.walF = f
	return db, nil
}

// Close fsyncs and closes the WAL, so every acknowledged write survives a
// power loss after a clean stop, and releases the directory.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var err error
	if db.walF != nil {
		err = db.walF.Sync()
		if cerr := db.walF.Close(); err == nil {
			err = cerr
		}
		db.walF = nil
	}
	if lerr := db.lock.Release(); err == nil {
		err = lerr
	}
	return err
}

// CreateTable registers a table; creating an existing table with an equal
// schema is a no-op. One that extends it — the same primary key, columns
// appended, other indexes: what an upgrade looks like to a data directory —
// is adopted and journalled, so the next open finds it equal. Old rows keep
// their values, and a new column reads as absent.
func (db *DB) CreateTable(s Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if ex, ok := db.tables[s.Name]; ok {
		if reflect.DeepEqual(ex.schema, s) {
			return nil
		}
		if n := len(ex.schema.Columns); s.PrimaryKey != ex.schema.PrimaryKey ||
			len(s.Columns) < n || !slices.Equal(ex.schema.Columns, s.Columns[:n]) {
			return fmt.Errorf("relstore: table %s exists with different schema", s.Name)
		}
	}
	db.adoptLocked(s)
	return db.appendWALLocked(walRecord{Op: "create", Table: s.Name, Schema: &s})
}

// adoptLocked makes s the schema of its table, creating the table if it
// does not exist and rebuilding the secondary indexes from its rows.
func (db *DB) adoptLocked(s Schema) *table {
	t, ok := db.tables[s.Name]
	if !ok {
		t = &table{rows: map[string]Row{}}
		db.tables[s.Name] = t
	}
	t.schema = s
	t.indexes = make(map[string]map[string]map[string]struct{}, len(s.Indexes))
	for _, idx := range s.Indexes {
		t.indexes[idx] = map[string]map[string]struct{}{}
	}
	for pk, row := range t.rows {
		t.index(pk, row)
	}
	return t
}

// unindex takes the row stored under pk, if any, out of every secondary index.
func (t *table) unindex(pk string) {
	for col, vm := range t.indexes {
		if ov, ok := t.rows[pk][col]; ok {
			key := encodeKey(ov)
			delete(vm[key], pk)
			if len(vm[key]) == 0 {
				delete(vm, key)
			}
		}
	}
}

// index enters row under pk in every secondary index.
func (t *table) index(pk string, row Row) {
	for col, vm := range t.indexes {
		if v, ok := row[col]; ok {
			key := encodeKey(v)
			set, ok := vm[key]
			if !ok {
				set = map[string]struct{}{}
				vm[key] = set
			}
			set[pk] = struct{}{}
		}
	}
}

// encodeKey renders any column value into a stable string key.
func encodeKey(v any) string { return string(appendKey(nil, v)) }

// appendKey appends encodeKey(v) to b, so a lookup can build its key in a
// stack buffer.
func appendKey(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return append(append(b, "s:"...), x...)
	case int64:
		return strconv.AppendInt(append(b, "i:"...), x, 10)
	case int:
		return strconv.AppendInt(append(b, "i:"...), int64(x), 10)
	case float64:
		return model.AppendFloat(append(b, "f:"...), x)
	case bool:
		return strconv.AppendBool(append(b, "b:"...), x)
	case nil:
		return append(b, "z:"...)
	}
	return fmt.Appendf(b, "x:%v", v)
}

// normalize coerces a value to the column type (JSON round-trips turn
// int64 into float64; this undoes that). A value already of the column's
// type comes back as is, not boxed anew.
func normalize(t ColumnType, v any) (any, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case ColInt:
		switch x := v.(type) {
		case int64:
			return v, nil
		case int:
			return int64(x), nil
		case float64:
			if x != math.Trunc(x) {
				return nil, fmt.Errorf("non-integer %v for int column", x)
			}
			return int64(x), nil
		}
	case ColFloat:
		switch x := v.(type) {
		case float64:
			return v, nil
		case int64:
			return float64(x), nil
		case int:
			return float64(x), nil
		}
	case ColText:
		if _, ok := v.(string); ok {
			return v, nil
		}
	case ColBool:
		if _, ok := v.(bool); ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("value %T does not fit column type %s", v, t)
}

// Upsert inserts or replaces the row identified by its primary key.
func (db *DB) Upsert(tableName string, row Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("relstore: no table %q", tableName)
	}
	norm, err := normalizeRow(t.schema, row)
	if err != nil {
		return fmt.Errorf("relstore: %w", err)
	}
	pkv, ok := norm[t.schema.PrimaryKey]
	if !ok || pkv == nil {
		return fmt.Errorf("relstore: %s: row missing primary key %s", tableName, t.schema.PrimaryKey)
	}
	pk := encodeKey(pkv)
	db.upsertLocked(t, pk, norm)
	return db.appendWALLocked(walRecord{Op: "upsert", Table: tableName, PK: pk, Row: norm})
}

func (db *DB) upsertLocked(t *table, pk string, row Row) {
	t.unindex(pk)
	t.rows[pk] = row
	t.index(pk, row)
}

// Delete removes a row by primary-key value, reporting whether it existed.
func (db *DB) Delete(tableName string, pkValue any) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return false, fmt.Errorf("relstore: no table %q", tableName)
	}
	pkCol, _ := colType(t.schema, t.schema.PrimaryKey)
	nv, err := normalize(pkCol, pkValue)
	if err != nil {
		return false, err
	}
	pk := encodeKey(nv)
	if _, exists := t.rows[pk]; !exists {
		return false, nil
	}
	t.unindex(pk)
	delete(t.rows, pk)
	return true, db.appendWALLocked(walRecord{Op: "delete", Table: tableName, PK: pk})
}

// Get fetches one row by primary-key value.
func (db *DB) Get(tableName string, pkValue any) (Row, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return nil, false, fmt.Errorf("relstore: no table %q", tableName)
	}
	pkCol, _ := colType(t.schema, t.schema.PrimaryKey)
	nv, err := normalize(pkCol, pkValue)
	if err != nil {
		return nil, false, err
	}
	row, exists := t.rows[encodeKey(nv)]
	if !exists {
		return nil, false, nil
	}
	return cloneRow(row), true, nil
}

// Select runs a query and returns copies of the matching rows.
func (db *DB) Select(tableName string, q Query) ([]Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.readable(tableName, q.Where)
	if err != nil {
		return nil, err
	}
	var out []Row
	if err := t.each(q.Where, func(row Row) bool {
		out = append(out, row)
		return true
	}); err != nil {
		return nil, err
	}
	orderCol := q.OrderBy
	if orderCol == "" {
		orderCol = t.schema.PrimaryKey
	}
	if _, ok := colType(t.schema, orderCol); !ok {
		return nil, fmt.Errorf("relstore: %s: order by unknown column %q", tableName, orderCol)
	}
	sort.Slice(out, func(i, j int) bool {
		less := compareVals(out[i][orderCol], out[j][orderCol]) < 0
		if q.Desc {
			return !less
		}
		return less
	})
	if q.Offset > 0 {
		if q.Offset >= len(out) {
			out = nil
		} else {
			out = out[q.Offset:]
		}
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	cloned := make([]Row, len(out))
	for i, r := range out {
		cloned[i] = cloneRow(r)
	}
	return cloned, nil
}

// Each calls fn with every row that satisfies where, in no particular
// order, until fn returns false. It is Select without the copies, the sort
// and the result slice: fn sees the store's own row, so it must neither
// keep nor modify it, and it runs under the read lock, so it must not call
// back into the store.
func (db *DB) Each(tableName string, where []Cond, fn func(Row) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.readable(tableName, where)
	if err != nil {
		return err
	}
	return t.each(where, fn)
}

// readable returns the named table after checking where against its
// schema, so a bad condition errors even on an empty table.
func (db *DB) readable(tableName string, where []Cond) (*table, error) {
	t, ok := db.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q", tableName)
	}
	for _, c := range where {
		ct, known := colType(t.schema, c.Col)
		if !known {
			return nil, fmt.Errorf("relstore: %s: condition on unknown column %q", tableName, c.Col)
		}
		if c.Op == OpHas && ct != ColText {
			return nil, fmt.Errorf("relstore: %s: contains requires text column, %s is %s", tableName, c.Col, ct)
		}
	}
	return t, nil
}

// each calls fn with the table's rows that satisfy where until fn returns
// false. The first equality condition on the primary key or on an indexed
// column names the candidates; without one every row is a candidate.
func (t *table) each(where []Cond, fn func(Row) bool) error {
	visit := func(row Row) (bool, error) {
		match, err := rowMatches(t.schema, row, where)
		if err != nil || !match {
			return err == nil, err
		}
		return fn(row), nil
	}
	for _, c := range where {
		vm, indexed := t.indexes[c.Col]
		if c.Op != OpEq || !indexed && c.Col != t.schema.PrimaryKey {
			continue
		}
		ct, _ := colType(t.schema, c.Col)
		nv, err := normalize(ct, c.Val)
		if err != nil {
			return err
		}
		var buf [64]byte
		key := appendKey(buf[:0], nv)
		if c.Col == t.schema.PrimaryKey {
			if row, ok := t.rows[string(key)]; ok {
				_, err = visit(row)
			}
			return err
		}
		for pk := range vm[string(key)] {
			if more, err := visit(t.rows[pk]); err != nil || !more {
				return err
			}
		}
		return nil
	}
	for _, row := range t.rows {
		if more, err := visit(row); err != nil || !more {
			return err
		}
	}
	return nil
}

// Count returns the number of rows matching the conditions.
func (db *DB) Count(tableName string, where ...Cond) (int, error) {
	n := 0
	err := db.Each(tableName, where, func(Row) bool { n++; return true })
	return n, err
}

// Tables lists table names, sorted.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func colType(s Schema, name string) (ColumnType, bool) {
	for _, c := range s.Columns {
		if c.Name == name {
			return c.Type, true
		}
	}
	return "", false
}

func cloneRow(r Row) Row {
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

func rowMatches(s Schema, row Row, conds []Cond) (bool, error) {
	for _, c := range conds {
		ct, ok := colType(s, c.Col)
		if !ok {
			return false, fmt.Errorf("relstore: condition on unknown column %q", c.Col)
		}
		want, err := normalize(ct, c.Val)
		if err != nil {
			return false, err
		}
		got := row[c.Col]
		if c.Op == OpHas {
			gs, ok1 := got.(string)
			ws, ok2 := want.(string)
			if !ok1 || !ok2 {
				return false, fmt.Errorf("relstore: contains requires text column")
			}
			if !strings.Contains(gs, ws) {
				return false, nil
			}
			continue
		}
		cmp := compareVals(got, want)
		ok = false
		switch c.Op {
		case OpEq:
			ok = cmp == 0
		case OpNe:
			ok = cmp != 0
		case OpLt:
			ok = cmp < 0
		case OpLe:
			ok = cmp <= 0
		case OpGt:
			ok = cmp > 0
		case OpGe:
			ok = cmp >= 0
		default:
			return false, fmt.Errorf("relstore: unknown operator %q", c.Op)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// compareVals orders two normalized values of the same column type; nil
// sorts first.
func compareVals(a, b any) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	switch x := a.(type) {
	case int64:
		y, ok := b.(int64)
		if !ok {
			return strings.Compare(encodeKey(a), encodeKey(b))
		}
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case float64:
		y, ok := b.(float64)
		if !ok {
			return strings.Compare(encodeKey(a), encodeKey(b))
		}
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case string:
		y, ok := b.(string)
		if !ok {
			return strings.Compare(encodeKey(a), encodeKey(b))
		}
		return strings.Compare(x, y)
	case bool:
		y, ok := b.(bool)
		if !ok {
			return strings.Compare(encodeKey(a), encodeKey(b))
		}
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
		return 0
	}
	return strings.Compare(encodeKey(a), encodeKey(b))
}
