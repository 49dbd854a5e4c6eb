package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"supersim/internal/lint"
)

// runDriver invokes the driver in-process.
func runDriver(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestDirtyText(t *testing.T) {
	code, out, errOut := runDriver(t, "testdata/dirty")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	// Two findings: the unregistered factory component and the unused allow,
	// rendered with module-root-relative paths.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "cmd/sslint/testdata/dirty/dirty.go:") ||
		!strings.Contains(lines[0], "Orphan implements dirty.Gadget but is not registered") ||
		!strings.HasSuffix(lines[0], "[factoryreg]") {
		t.Errorf("unexpected first finding: %q", lines[0])
	}
	if !strings.Contains(lines[1], "suppresses nothing") ||
		!strings.HasSuffix(lines[1], "[directive]") {
		t.Errorf("unexpected second finding: %q", lines[1])
	}
	if !strings.Contains(errOut, "2 findings") {
		t.Errorf("stderr = %q, want finding count", errOut)
	}
}

func TestDirtyJSON(t *testing.T) {
	code, out, _ := runDriver(t, "-json", "testdata/dirty")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	var diags []jsonDiag
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(diags), diags)
	}
	d := diags[0]
	if d.File != "cmd/sslint/testdata/dirty/dirty.go" || d.Rule != "factoryreg" ||
		d.Line <= 0 || d.Col <= 0 || !strings.Contains(d.Message, "Orphan implements dirty.Gadget") {
		t.Errorf("unexpected finding: %+v", d)
	}
	if diags[1].Rule != "directive" {
		t.Errorf("second finding rule = %q, want directive", diags[1].Rule)
	}
}

func TestRuleSubset(t *testing.T) {
	// With -rules the directive meta-check is off: only the factoryreg finding.
	code, out, _ := runDriver(t, "-rules", "factoryreg", "testdata/dirty")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 1 {
		t.Fatalf("got %d findings, want 1:\n%s", len(lines), out)
	}
	// A subset that has nothing to say about the fixture is clean.
	code, out, _ = runDriver(t, "-rules", "determinism,shardsafety,snapshotcomplete", "testdata/dirty")
	if code != 0 || strings.TrimSpace(out) != "" {
		t.Fatalf("exit code = %d (want 0), output %q", code, out)
	}
}

func TestClean(t *testing.T) {
	code, out, _ := runDriver(t, "testdata/clean")
	if code != 0 || strings.TrimSpace(out) != "" {
		t.Fatalf("exit code = %d (want 0), output %q", code, out)
	}
	code, out, _ = runDriver(t, "-json", "testdata/clean")
	if code != 0 || strings.TrimSpace(out) != "[]" {
		t.Fatalf("JSON clean run: exit code = %d (want 0), output %q", code, out)
	}
}

func TestJSONOutArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "findings.json")
	code, out, _ := runDriver(t, "-json-out", path, "testdata/dirty")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	// Text findings still go to stdout; the artifact is written alongside.
	if !strings.Contains(out, "[factoryreg]") {
		t.Errorf("stdout lost the text findings: %q", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var diags []jsonDiag
	if err := json.Unmarshal(data, &diags); err != nil {
		t.Fatalf("artifact is not a JSON array: %v\n%s", err, data)
	}
	if len(diags) != 2 {
		t.Fatalf("artifact holds %d findings, want 2: %v", len(diags), diags)
	}

	// A clean run still writes the artifact, as an empty array.
	code, _, _ = runDriver(t, "-json-out", path, "testdata/clean")
	if code != 0 {
		t.Fatalf("clean run exit code = %d, want 0", code)
	}
	if data, err = os.ReadFile(path); err != nil || strings.TrimSpace(string(data)) != "[]" {
		t.Fatalf("clean artifact = %q (err %v), want []", data, err)
	}

	// An unwritable artifact path is a driver failure, not a silent skip.
	code, _, errOut := runDriver(t, "-json-out", filepath.Join(t.TempDir(), "no", "such", "dir.json"), "testdata/clean")
	if code != 2 || !strings.Contains(errOut, "findings artifact") {
		t.Fatalf("unwritable artifact: exit code = %d (want 2), stderr %q", code, errOut)
	}
}

func TestListRules(t *testing.T) {
	code, out, _ := runDriver(t, "-list-rules")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	want := append(lint.Rules(), lint.RuleDirective)
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), out)
	}
	for i, name := range want {
		if !strings.HasPrefix(lines[i], name) {
			t.Errorf("line %d = %q, want rule %q first", i, lines[i], name)
		}
		if doc := lint.RuleDoc(name); !strings.Contains(lines[i], doc) {
			t.Errorf("line %d lacks the doc for %q", i, name)
		}
	}
}

func TestFixturesSelfCheck(t *testing.T) {
	code, out, errOut := runDriver(t, "-fixtures")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "fixture runs ok") {
		t.Errorf("stdout = %q, want fixture summary", out)
	}
}

func TestUnknownRule(t *testing.T) {
	code, _, errOut := runDriver(t, "-rules", "nosuchrule", "testdata/dirty")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut, `unknown rule "nosuchrule"`) {
		t.Errorf("stderr = %q, want unknown-rule error", errOut)
	}
	// The retired probeguard rule is unknown too: nil-safe probe types
	// replaced it, and no option brings it back.
	if code, _, errOut := runDriver(t, "-rules", "probeguard", "testdata/dirty"); code != 2 ||
		!strings.Contains(errOut, `unknown rule "probeguard"`) {
		t.Fatalf("-rules probeguard: exit code = %d (want 2), stderr %q", code, errOut)
	}
}

func TestNoPackages(t *testing.T) {
	if code, _, _ := runDriver(t); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestBaselineSuppressesAndGoesStale(t *testing.T) {
	_, out, _ := runDriver(t, "testdata/dirty")
	baseline := filepath.Join(t.TempDir(), "sslint.baseline")
	content := "# accepted findings\n\n" + out
	if err := os.WriteFile(baseline, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, errOut := runDriver(t, "-baseline", baseline, "testdata/dirty")
	if code != 0 || strings.TrimSpace(out) != "" {
		t.Fatalf("baselined run: exit code = %d (want 0), output %q, stderr %q", code, out, errOut)
	}

	// An entry whose finding no longer exists must fail the run loudly.
	stale := content + "cmd/sslint/testdata/dirty/dirty.go:99:1: long-gone finding [factoryreg]\n"
	if err := os.WriteFile(baseline, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut = runDriver(t, "-baseline", baseline, "testdata/dirty")
	if code != 2 {
		t.Fatalf("stale run: exit code = %d, want 2\nstderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "stale baseline") || !strings.Contains(errOut, "long-gone finding") {
		t.Errorf("stderr = %q, want stale-baseline report", errOut)
	}
}

func TestMissingBaselineFile(t *testing.T) {
	code, _, errOut := runDriver(t, "-baseline", "testdata/does-not-exist", "testdata/clean")
	if code != 2 || !strings.Contains(errOut, "baseline") {
		t.Fatalf("exit code = %d (want 2), stderr %q", code, errOut)
	}
}
