package lint_test

import (
	"testing"

	"disasso/internal/lint"
	"disasso/internal/lint/linttest"
)

func TestDetOrder(t *testing.T) {
	linttest.Run(t, "testdata", lint.DetOrder,
		"detorder/pos", "detorder/neg", "detorder/badjust")
}

func TestDenseDomain(t *testing.T) {
	linttest.Run(t, "testdata", lint.DenseDomain,
		"densedomain/pos", "densedomain/neg")
}

func TestCloseCheck(t *testing.T) {
	linttest.Run(t, "testdata", lint.CloseCheck,
		"closecheck/pos", "closecheck/neg")
}

func TestHookPair(t *testing.T) {
	linttest.Run(t, "testdata", lint.HookPair,
		"hookpair/good", "hookpair/missing", "hookpair/mismatch",
		"hookpair/sameside", "hookpair/untagged", "hookreg/internal/query")
}

func TestImmutSnap(t *testing.T) {
	linttest.Run(t, "testdata", lint.ImmutSnap,
		"immutsnap/pos", "immutsnap/neg")
}

func TestLockScope(t *testing.T) {
	linttest.Run(t, "testdata", lint.LockScope,
		"lockscope/pos", "lockscope/neg")
}

func TestAtomicWrite(t *testing.T) {
	linttest.Run(t, "testdata", lint.AtomicWrite,
		"atomicwrite/pos", "atomicwrite/neg")
}

func TestUnsafeSlab(t *testing.T) {
	linttest.Run(t, "testdata", lint.UnsafeSlab,
		"unsafeslab/query", "unsafeslab/snapfile", "unsafeslab/generic")
}

// TestRepoIsClean is the self-smoke test: the scoped suite over the whole
// module must produce zero findings, mirroring the CI gate
// `go run ./cmd/disassolint ./...`.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the entire module")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, lint.All())
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}
