// Package sysfs provides the pseudo-filesystem abstraction the CEEMS
// exporter collectors read from. On a real node the collectors walk /proc,
// /sys and /sys/fs/cgroup; in this repository the hardware and resource-
// manager simulators write the same file layout into an in-memory FS and
// the collectors are none the wiser. An OS-backed implementation is
// provided for completeness so the same collectors could run against real
// kernel files.
package sysfs

import (
	"fmt"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// FS is the interface collectors use. Paths are slash-separated and
// absolute ("/sys/fs/cgroup/...").
type FS interface {
	// ReadFile returns the file contents.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the immediate children (names only, sorted) of dir.
	ReadDir(dir string) ([]string, error)
	// Exists reports whether a file or directory exists.
	Exists(name string) bool
}

// WritableFS extends FS with mutation, used by the simulators.
type WritableFS interface {
	FS
	// WriteFile creates or replaces a file, creating parents implicitly.
	WriteFile(name string, data []byte)
	// Remove deletes a file.
	Remove(name string)
	// RemoveAll deletes every file under prefix.
	RemoveAll(prefix string)
}

// MemFS is an in-memory WritableFS, safe for concurrent use.
type MemFS struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string][]byte)}
}

func clean(name string) string {
	if !strings.HasPrefix(name, "/") {
		name = "/" + name
	}
	return path.Clean(name) // returns name itself, no copy, when already clean
}

// WriteFile creates or replaces a file.
func (m *MemFS) WriteFile(name string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[clean(name)] = append([]byte(nil), data...)
}

// WriteString is WriteFile for string content.
func (m *MemFS) WriteString(name, data string) { m.WriteFile(name, []byte(data)) }

// ReadFile returns a copy of the file contents.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.files[clean(name)]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), data...), nil
}

// ReadDir lists immediate children of dir: both files and implied
// subdirectories.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	d := clean(dir)
	prefix := d
	if prefix != "/" {
		prefix += "/"
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	seen := map[string]bool{}
	for p := range m.files {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := p[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		seen[rest] = true
	}
	if len(seen) == 0 {
		return nil, &os.PathError{Op: "readdir", Path: dir, Err: os.ErrNotExist}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// Exists reports whether name is a file or a directory prefix.
func (m *MemFS) Exists(name string) bool {
	n := clean(name)
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, ok := m.files[n]; ok {
		return true
	}
	prefix := n + "/"
	for p := range m.files {
		if strings.HasPrefix(p, prefix) {
			return true
		}
	}
	return false
}

// Remove deletes one file (no error if absent).
func (m *MemFS) Remove(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, clean(name))
}

// RemoveAll deletes every file under prefix (and the exact path itself).
func (m *MemFS) RemoveAll(prefix string) {
	p := clean(prefix)
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, p)
	pre := p + "/"
	for f := range m.files {
		if strings.HasPrefix(f, pre) {
			delete(m.files, f)
		}
	}
}

// Len returns the number of files (for tests/diagnostics).
func (m *MemFS) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.files)
}

// OSFS reads the real operating-system filesystem rooted at Root ("" means
// /). It implements FS only; the kernel owns writes.
type OSFS struct {
	Root string
}

// ReadFile reads from the host filesystem.
func (o OSFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(o.Root + clean(name))
}

// ReadDir lists a host directory.
func (o OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(o.Root + clean(dir))
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ents))
	for i, e := range ents {
		out[i] = e.Name()
	}
	return out, nil
}

// Exists checks the host filesystem.
func (o OSFS) Exists(name string) bool {
	_, err := os.Stat(o.Root + clean(name))
	return err == nil
}

// ReadUint64 reads a file containing a single decimal integer (the common
// shape of sysfs/cgroup files).
func ReadUint64(fs FS, name string) (uint64, error) {
	data, err := fs.ReadFile(name)
	if err != nil {
		return 0, err
	}
	s := strings.TrimSpace(string(data))
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sysfs: %s: bad integer %q: %w", name, s, err)
	}
	return v, nil
}

// ReadKVFile parses files of "key value" lines (cpu.stat, memory.stat).
func ReadKVFile(fs FS, name string) (map[string]uint64, error) {
	data, err := fs.ReadFile(name)
	if err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out, nil
}
