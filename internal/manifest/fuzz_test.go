package manifest

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoad feeds arbitrary bytes through the manifest reader, which takes
// manifests from disk after arbitrary runs. A rejected input is fine; a
// panic fails the target. A manifest that loads must write back out. Seeds
// are the sweep's committed golden manifests.
func FuzzLoad(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "sweep", "testdata", "golden_manifest_*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed manifests (%v)", err)
	}
	for _, p := range seeds {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
	})
}
