package wgrap

import (
	"errors"
	"go/build"
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// TestInternalPackagesAreReached fails for any package under internal/ that
// no non-test file of the module imports: such a package serves only its own
// tests, so nothing the library, the binaries or the examples run reaches
// it. perfbench/ (a module of its own) and testdata/ directories are not
// walked.
func TestInternalPackagesAreReached(t *testing.T) {
	exempt := map[string]string{
		"repro/internal/lap": "the Hungarian reference of the SDGA and transport parity tests",
	}
	imported := make(map[string]bool)
	var internal []string
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "perfbench" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		for _, imp := range pkg.Imports {
			imported[imp] = true
		}
		if importPath := path.Join("repro", filepath.ToSlash(dir)); strings.HasPrefix(importPath, "repro/internal/") {
			internal = append(internal, importPath)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) == 0 {
		t.Fatal("no packages found under internal/")
	}
	for _, p := range internal {
		if imported[p] {
			continue
		}
		if why, ok := exempt[p]; ok {
			t.Logf("%s has no importer outside tests: exempt, %s", p, why)
			continue
		}
		t.Errorf("%s has no importer outside tests", p)
	}
}
