package lint

import (
	"go/ast"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// HookPair verifies the house reference-path hook pattern. Each proven
// equivalence in this repo (incremental REFINE vs always-re-plan, indexed
// query vs linear scan, cached vs uncached support serving) is wired through
// a `<name>Default` constant declared twice: once in a file built under a
// reference tag and once in a file built under its negation. CI flips the
// tags to cross-check byte-identical output. If one side of a pair is
// deleted or its constraint drifts, the oracle is silently orphaned — the
// build still succeeds and the equivalence is simply never exercised again.
//
// Enforced, per package:
//   - every file named *_hook_*.go carries a //go:build line that is exactly
//     `tag` or `!tag`;
//   - every `<name>Default` const/var declared in hook files appears in
//     exactly two of them, with constraints `tag` and `!tag` for the same
//     tag;
//   - hooks listed in the registry below must exist (so deleting both sides
//     of a pair is also caught).
var HookPair = &Analyzer{
	Name: "hookpair",
	Doc: "verifies every reference-path hook has matching tag-on and " +
		"tag-off build files, so equivalence oracles cannot be orphaned",
	Run: runHookPair,
}

// requiredHooks is the registry of hooks that must exist, keyed by import
// path suffix. Extend it when a new reference path ships.
var requiredHooks = map[string][]string{
	"internal/breach": {"breachExhaustiveDefault"},
	"internal/core":   {"refineAlwaysReplanDefault", "republishScratchDefault", "safeRepairRescanDefault"},
	"internal/query":  {"supportViaScanDefault"},
	"internal/server": {"supportCacheOnDefault"},
}

// hookDecl records one declaration of a hook constant in one build-tag file.
type hookDecl struct {
	file string
	pos  token.Pos
	tag  string // build tag name
	neg  bool   // constraint is !tag
	ok   bool   // constraint parsed to a plain tag / !tag
}

func runHookPair(pass *Pass) error {
	hookFiles := hookFilesOf(pass)
	if len(hookFiles) == 0 {
		return checkRegistry(pass, nil)
	}

	hooks := make(map[string][]hookDecl)
	for _, path := range hookFiles {
		f, err := parser.ParseFile(pass.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pass.Reportf(token.NoPos, "hook file %s does not parse: %v", filepath.Base(path), err)
			continue
		}
		tag, neg, okTag := buildTagOf(f)
		if !okTag {
			pass.Reportf(f.Package,
				"hook file %s needs a //go:build line that is exactly a tag or its negation (got none or a composite expression)",
				filepath.Base(path))
		}
		names := hookNamesIn(f)
		if len(names) == 0 {
			pass.Reportf(f.Package,
				"hook file %s declares no *Default hook constant: either rename the file or declare the hook it gates",
				filepath.Base(path))
			continue
		}
		for name, pos := range names {
			hooks[name] = append(hooks[name], hookDecl{
				file: filepath.Base(path), pos: pos, tag: tag, neg: neg, ok: okTag,
			})
		}
	}

	names := make([]string, 0, len(hooks))
	for name := range hooks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		checkHookPairing(pass, name, hooks[name])
	}
	return checkRegistry(pass, hooks)
}

func checkHookPairing(pass *Pass, name string, decls []hookDecl) {
	for _, d := range decls {
		if !d.ok {
			return // constraint problem already reported per file
		}
	}
	if len(decls) != 2 {
		files := make([]string, len(decls))
		for i, d := range decls {
			files[i] = d.file
		}
		pass.Reportf(decls[0].pos,
			"hook %s is declared in %d tag file(s) (%s): want exactly one tag-on and one tag-off file",
			name, len(decls), strings.Join(files, ", "))
		return
	}
	a, b := decls[0], decls[1]
	switch {
	case a.tag != b.tag:
		pass.Reportf(a.pos,
			"hook %s pair uses mismatched build tags %q (%s) and %q (%s): both sides must gate on one tag",
			name, a.tag, a.file, b.tag, b.file)
	case a.neg == b.neg:
		pass.Reportf(a.pos,
			"hook %s is declared under the same constraint in %s and %s: one side must be //go:build %s and the other //go:build !%s",
			name, a.file, b.file, a.tag, a.tag)
	}
}

func checkRegistry(pass *Pass, hooks map[string][]hookDecl) error {
	for suffix, required := range requiredHooks {
		if pass.Path != suffix && !strings.HasSuffix(pass.Path, "/"+suffix) {
			continue
		}
		for _, name := range required {
			if len(hooks[name]) == 0 {
				pos := token.NoPos
				if len(pass.Files) > 0 {
					pos = pass.Files[0].Package
				}
				pass.Reportf(pos,
					"registered reference-path hook %s is missing from %s: its tag files were deleted or renamed (update the registry in internal/lint/hookpair.go only when the reference path itself is retired)",
					name, pass.Path)
			}
		}
	}
	return nil
}

// hookFilesOf returns the package's *_hook_*.go files, both the compiled
// side and the constraint-excluded side, excluding tests.
func hookFilesOf(pass *Pass) []string {
	var out []string
	for _, list := range [2][]string{pass.GoFiles, pass.OtherGoFiles} {
		for _, path := range list {
			base := filepath.Base(path)
			if strings.HasSuffix(base, "_test.go") || !strings.Contains(base, "_hook_") {
				continue
			}
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// buildTagOf extracts the file's //go:build constraint if it is exactly
// `tag` or `!tag`.
func buildTagOf(f *ast.File) (tag string, neg, ok bool) {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return "", false, false
			}
			switch x := expr.(type) {
			case *constraint.TagExpr:
				return x.Tag, false, true
			case *constraint.NotExpr:
				if t, isTag := x.X.(*constraint.TagExpr); isTag {
					return t.Tag, true, true
				}
			}
			return "", false, false
		}
	}
	return "", false, false
}

// hookNamesIn collects top-level const/var names matching the *Default hook
// convention, with their positions.
func hookNamesIn(f *ast.File) map[string]token.Pos {
	out := make(map[string]token.Pos)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || (gd.Tok != token.CONST && gd.Tok != token.VAR) {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if strings.HasSuffix(name.Name, "Default") && name.Name != "Default" {
					out[name.Name] = name.Pos()
				}
			}
		}
	}
	return out
}
