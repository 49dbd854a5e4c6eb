package ssparse

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The ssparse readers take files straight from disk, often from runs that
// died mid-write. Each fuzz target feeds arbitrary bytes through one reader
// and then through the writers a successful load feeds; rejecting the input
// with an error is fine, a panic fails the target. Seeds are the committed
// fixtures the golden tests use.

// addSeeds adds the first lines of each file, plus a copy cut mid-line, to
// the corpus. The mutator slows to a crawl on inputs of hundreds of
// kilobytes, and a few records cover every record shape the fixtures hold.
func addSeeds(f *testing.F, paths ...string) {
	f.Helper()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		if len(lines) > 8 {
			data = bytes.Join(lines[:8], nil)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte{})
}

var cliTestdata = filepath.Join("..", "..", "cmd", "ssparse", "testdata")

func FuzzParse(f *testing.F) {
	addSeeds(f, filepath.Join(cliTestdata, "sample.log"))
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := Write(io.Discard, samples); err != nil {
			t.Fatal(err)
		}
		Apply(samples, nil).Summarize()
	})
}

func FuzzLoadSpans(f *testing.F) {
	addSeeds(f, filepath.Join(cliTestdata, "spans.jsonl"))
	f.Fuzz(func(t *testing.T, data []byte) {
		agg, err := LoadSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := agg.WriteTable(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := agg.WriteSpansCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}

func FuzzLoadTasks(f *testing.F) {
	addSeeds(f, filepath.Join(cliTestdata, "tasks.jsonl"),
		filepath.Join("..", "taskrun", "testdata", "golden_journal.jsonl"))
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := LoadTasks(bytes.NewReader(data))
		if err != nil {
			return
		}
		log.SpanMS()
		if err := log.WriteTasksCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
