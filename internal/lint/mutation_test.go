package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"disasso/internal/lint"
)

// TestMutationsAreCaught is the analyzers' own regression harness: it copies
// the module into a temp dir, re-introduces each of the bug classes the
// dataflow analyzers exist for, and asserts the corresponding analyzer turns
// the build red. Together with TestRepoIsClean (zero findings on the real
// tree) this proves the suite is neither vacuous nor noisy.
func TestMutationsAreCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and re-type-checks module packages")
	}
	mod := copyModule(t)

	mutations := []struct {
		name     string
		file     string // module-relative
		old, new string
		pattern  string // load pattern for the mutated package
		analyzer string // analyzer expected to fire
	}{
		{
			name:     "store-after-install",
			file:     "internal/server/server.go",
			old:      "\ts.snapshots[name] = sn\n\ts.mu.Unlock()\n\ts.writeJSON(w, http.StatusCreated, sn.info)",
			new:      "\ts.snapshots[name] = sn\n\ts.mu.Unlock()\n\tsn.info.Version = 99\n\ts.writeJSON(w, http.StatusCreated, sn.info)",
			pattern:  "./internal/server",
			analyzer: "immutsnap",
		},
		{
			name:     "sync-deleted-from-persist",
			file:     "internal/server/persist.go",
			old:      "\tif err == nil {\n\t\terr = f.Sync()\n\t}\n",
			new:      "",
			pattern:  "./internal/server",
			analyzer: "atomicwrite",
		},
		{
			// query.Estimate is the only struct snapfile casts; the subtest
			// keeps its established name.
			name:     "posting-widened-without-version-bump",
			file:     "internal/query/query.go",
			old:      "\tExpected float64\n}",
			new:      "\tExpected float64\n\tExact    bool\n}",
			pattern:  "./internal/query",
			analyzer: "unsafeslab",
		},
		{
			name:     "blocking-io-under-registry-mutex",
			file:     "internal/server/server.go",
			old:      "\ts.mu.Lock()\n\ts.snapshots[name] = sn\n\ts.mu.Unlock()\n\ts.writeJSON(w, http.StatusCreated, sn.info)",
			new:      "\ts.mu.Lock()\n\t_, _ = io.ReadAll(r.Body)\n\ts.snapshots[name] = sn\n\ts.mu.Unlock()\n\ts.writeJSON(w, http.StatusCreated, sn.info)",
			pattern:  "./internal/server",
			analyzer: "lockscope",
		},
	}

	for _, mut := range mutations {
		t.Run(mut.name, func(t *testing.T) {
			path := filepath.Join(mod, mut.file)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading %s: %v", mut.file, err)
			}
			mutated := strings.Replace(string(orig), mut.old, mut.new, 1)
			if mutated == string(orig) {
				t.Fatalf("mutation %s did not apply: pattern not found in %s (file drifted? update the mutation)", mut.name, mut.file)
			}
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatalf("writing mutation: %v", err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatalf("restoring %s: %v", mut.file, err)
				}
			}()

			pkgs, err := lint.Load(mod, mut.pattern)
			if err != nil {
				t.Fatalf("loading mutated module: %v", err)
			}
			found := false
			for _, pkg := range pkgs {
				diags, err := lint.RunAnalyzers(pkg, lint.All())
				if err != nil {
					t.Fatalf("%s: %v", pkg.Path, err)
				}
				for _, d := range diags {
					if d.Analyzer == mut.analyzer {
						found = true
					}
				}
			}
			if !found {
				t.Errorf("mutation %s: expected a %s finding, got none — the analyzer no longer catches this bug class", mut.name, mut.analyzer)
			}
		})
	}
}

// copyModule replicates the module's Go sources (plus go.mod) into a temp
// dir so mutations never touch the real tree. testdata, .git and CI config
// are irrelevant to type-checking the mutated packages and are skipped.
func copyModule(t *testing.T) string {
	t.Helper()
	root := "../.."
	dst := t.TempDir()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", ".github":
				if rel != "." {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
	return dst
}
