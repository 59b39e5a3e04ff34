package pipeline

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testGrid is a small two-experiment grid: both experiments are
// deterministic, one sweeps a parameter over two points, one runs two
// replicas at the defaults.
const testGrid = `{
  "name": "test-grid",
  "seed": 7,
  "repeats": 1,
  "experiments": [
    {"name": "validity", "repeats": 2},
    {"name": "imbalance", "grid": {"cv": ["0,0.2", "0,0.5"]}}
  ]
}`

func runTestGrid(t *testing.T, workers int) (*Manifest, string) {
	t.Helper()
	grid, err := ParseGrid([]byte(testGrid))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	man, outDir, err := Run(grid, Options{
		Dir:       dir,
		Workers:   workers,
		GitCommit: "deadbeef",
		Now:       func() time.Time { return time.Unix(1700000000, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if outDir != dir {
		t.Fatalf("ran into %s, want %s", outDir, dir)
	}
	return man, dir
}

// readTree returns path -> content for every artifact file.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	files, err := listArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, rel := range files {
		data, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			t.Fatal(err)
		}
		out[rel] = string(data)
	}
	return out
}

// TestPipelineDeterminism is the acceptance gate of the artifact store: the
// same grid at -parallel 1 and -parallel 8 must produce byte-identical
// csv/logs/analysis trees and identical manifest content hashes.
func TestPipelineDeterminism(t *testing.T) {
	seqMan, seqDir := runTestGrid(t, 1)
	parMan, parDir := runTestGrid(t, 8)

	if !reflect.DeepEqual(seqMan.Files, parMan.Files) {
		t.Errorf("manifest hashes differ between worker counts:\n1: %v\n8: %v", seqMan.Files, parMan.Files)
	}
	seq, par := readTree(t, seqDir), readTree(t, parDir)
	if len(seq) == 0 {
		t.Fatal("no artifacts written")
	}
	for path, data := range seq {
		if par[path] != data {
			t.Errorf("%s differs between -parallel 1 and -parallel 8", path)
		}
	}
	// Layout: one CSV + log per recorded run, a summary, the validity
	// timeline artifacts.
	if got, want := len(seqMan.Runs), 4; got != want { // 2 validity replicas + 2 imbalance points
		t.Errorf("recorded %d runs, want %d", got, want)
	}
	for _, p := range []string{
		"csv/validity__r0.csv", "csv/validity__r1.csv",
		"csv/imbalance-cv=0-0.2.csv", "csv/imbalance-cv=0-0.5.csv",
		"logs/validity__r0.log",
		"analysis/validity__r0.timeline.json",
		"analysis/summary.csv",
	} {
		if _, ok := seq[p]; !ok {
			t.Errorf("missing artifact %s (have %v)", p, keysOf(seq))
		}
	}
	// Both directories validate against their manifests.
	if err := Validate(seqDir); err != nil {
		t.Errorf("fresh run fails validation: %v", err)
	}
	// The summary aggregates both validity replicas into n=2 groups.
	if !strings.Contains(seq["analysis/summary.csv"], "validity,orders_differ,2,") {
		t.Errorf("summary missing validity orders_differ row:\n%s", seq["analysis/summary.csv"])
	}
}

func keysOf(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestValidateRejectsCorruption: flipping a numeric cell in a CSV must be
// rejected with an error naming the column, before any hash check fires.
func TestValidateRejectsCorruption(t *testing.T) {
	_, dir := runTestGrid(t, 2)
	path := filepath.Join(dir, "csv", "validity__r0.csv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The validity table has only string columns; corrupt the summary
	// instead, whose n column is typed int.
	sumPath := filepath.Join(dir, "analysis", "summary.csv")
	sum, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(sum, []byte(",2,"), []byte(",2x,"), 1)
	if bytes.Equal(bad, sum) {
		t.Fatal("test setup: no ',2,' cell to corrupt in summary")
	}
	if err := os.WriteFile(sumPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	err = Validate(dir)
	if err == nil {
		t.Fatal("corrupted summary.csv accepted")
	}
	if !strings.Contains(err.Error(), `column "n"`) {
		t.Errorf("error does not name the corrupted column: %v", err)
	}
	// Restore the summary, corrupt a data CSV's bytes instead: hash check
	// must fire (string columns can't fail the schema).
	if err := os.WriteFile(sumPath, sum, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, []byte("extra,row\n")...), 0o644); err == nil {
		if err := Validate(dir); err == nil {
			t.Error("tampered CSV accepted")
		}
	}
}

// TestValidateRejectsStrayFiles: an unrecorded file in an artifact
// directory fails validation.
func TestValidateRejectsStrayFiles(t *testing.T) {
	_, dir := runTestGrid(t, 2)
	if err := os.WriteFile(filepath.Join(dir, "csv", "stray.csv"), []byte("a\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Validate(dir); err == nil || !strings.Contains(err.Error(), "stray.csv") {
		t.Errorf("stray file not rejected: %v", err)
	}
}

// TestDiffSelfIsClean: diffing a run against itself reports zero changed
// deterministic metrics and no added/removed names.
func TestDiffSelfIsClean(t *testing.T) {
	_, dir := runTestGrid(t, 2)
	rep, err := Diff(dir, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed != 0 {
		t.Errorf("self-diff changed = %d, want 0", rep.Changed)
	}
	if len(rep.Added)+len(rep.Removed) != 0 {
		t.Errorf("self-diff added/removed: %v / %v", rep.Added, rep.Removed)
	}
	if len(rep.Metrics) == 0 {
		t.Fatal("self-diff has no metrics")
	}
	for name, d := range rep.Metrics {
		if d.Before != d.After || d.ChangePct != 0 {
			t.Errorf("self-diff metric %s not equal: %+v", name, d)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"changed": 0`, `"before"`, `"after"`, `"change_pct"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("diff JSON missing %s:\n%s", want, buf.String())
		}
	}
}

// TestDiffDetectsChange: two grids whose deterministic sweep points differ
// produce added/removed metrics; an altered keys value counts as changed.
func TestDiffDetectsChange(t *testing.T) {
	_, dirA := runTestGrid(t, 2)
	_, dirB := runTestGrid(t, 2)
	// Forge a changed metric in B's manifest (simulating a behavioural
	// change between commits).
	mb, err := ReadManifest(dirB)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mb.Runs {
		if mb.Runs[i].Experiment == "imbalance" {
			for k := range mb.Runs[i].Keys {
				mb.Runs[i].Keys[k] *= 2
			}
		}
	}
	f, err := os.Create(filepath.Join(dirB, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := mb.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := Diff(dirA, dirB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed == 0 {
		t.Error("doubled deterministic metrics not counted as changed")
	}
	found := false
	for name, d := range rep.Metrics {
		if strings.HasPrefix(name, "imbalance@") && d.Before != 0 {
			if d.After != 2*d.Before {
				t.Errorf("%s: after %v, want %v", name, d.After, 2*d.Before)
			}
			if d.ChangePct != 100 {
				t.Errorf("%s: change_pct %v, want 100", name, d.ChangePct)
			}
			found = true
		}
	}
	if !found {
		t.Error("no imbalance metric in diff")
	}
}

// TestDiffDetectsArtifactChange: a deterministic run's csv/ or analysis/
// file whose bytes changed counts as changed even when every metric agrees.
func TestDiffDetectsArtifactChange(t *testing.T) {
	_, dirA := runTestGrid(t, 2)
	_, dirB := runTestGrid(t, 2)
	mb, err := ReadManifest(dirB)
	if err != nil {
		t.Fatal(err)
	}
	var target string
	for _, r := range mb.Runs {
		for _, f := range r.Files {
			if r.Deterministic && strings.HasPrefix(f, "csv/") && target == "" {
				target = f
			}
		}
	}
	if target == "" {
		t.Fatal("test grid has no deterministic csv artifact")
	}
	// Flip one byte, and record the new hash as a run of changed code would.
	path := filepath.Join(dirB, filepath.FromSlash(target))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if mb.Files[target], err = hashFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dirB, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := mb.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := Diff(dirA, dirB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed != 1 || len(rep.ChangedFiles) != 1 || rep.ChangedFiles[0] != target {
		t.Errorf("changed = %d, files %v; want 1, [%s]", rep.Changed, rep.ChangedFiles, target)
	}
}

// TestParseGridRejectsBadSpecs: unknown experiments, undeclared sweep
// parameters, and unknown JSON fields all fail fast.
func TestParseGridRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name, grid, want string
	}{
		{"unknown experiment", `{"name":"g","experiments":[{"name":"nope"}]}`, "unknown experiment"},
		{"undeclared sweep", `{"name":"g","experiments":[{"name":"validity","grid":{"bogus":["1"]}}]}`, "bogus"},
		{"unknown field", `{"name":"g","experimints":[]}`, "experimints"},
		{"no experiments", `{"name":"g","experiments":[]}`, "no experiments"},
		{"no name", `{"experiments":[{"name":"validity"}]}`, "name"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseGrid([]byte(c.grid))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}

// TestGridPointExpansion: scalar-or-list values and cross products.
func TestGridPointExpansion(t *testing.T) {
	grid, err := ParseGrid([]byte(`{
	  "name": "g",
	  "experiments": [{"name": "cache-sweep", "grid": {"sizes": ["4", "8"], "assocs": "2"}}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	pts := grid.Experiments[0].points()
	if len(pts) != 2 {
		t.Fatalf("expanded %d points, want 2: %v", len(pts), pts)
	}
	labels := []string{pts[0].Label(), pts[1].Label()}
	want := []string{"assocs=2 sizes=4", "assocs=2 sizes=8"}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("labels = %v, want %v", labels, want)
	}
}

// TestRunRefusesDirtyDir: an explicit -out directory that already holds a
// manifest is refused rather than overwritten.
func TestRunRefusesDirtyDir(t *testing.T) {
	_, dir := runTestGrid(t, 1)
	grid, err := ParseGrid([]byte(testGrid))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(grid, Options{Dir: dir, Workers: 1}); err == nil {
		t.Error("Run overwrote an existing artifact directory")
	}
}
