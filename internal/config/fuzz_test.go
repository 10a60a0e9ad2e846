package config

import (
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/yamlite"
)

// FuzzYamlite: any bytes through yamlite.Parse, and through
// yamlite.Unmarshal into a Config over the defaults, end in an error or a
// value, never a panic, and allocate at most a fixed multiple of the input.
// It lives here rather than in internal/yamlite, which may not import the
// Config it decodes into. Seeded from every example configuration and the
// documents of this package's tests.
func FuzzYamlite(f *testing.F) {
	for _, doc := range append(append([]string{sampleYAML}, invalidYAML...), unknownKeyYAML...) {
		f.Add([]byte(doc))
	}
	err := filepath.WalkDir("../../examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".yaml") {
			return err
		}
		data, err := os.ReadFile(path)
		f.Add(data)
		return err
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		yamlite.Parse(data)
		cfg := Default()
		yamlite.Unmarshal(data, &cfg)
		runtime.ReadMemStats(&after)
		// Lines, trees of maps and slices, and the decoded copies: a few
		// hundred bytes per input byte at the densest.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, 1<<20+1024*uint64(len(data)); alloc > limit {
			t.Fatalf("a %d-byte document allocated %d bytes, limit %d", len(data), alloc, limit)
		}
	})
}
