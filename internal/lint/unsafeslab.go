package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// UnsafeSlab guards the zero-copy serving path. snapfile reconstructs typed
// slices (the term domain, posting offsets and cluster ids, and the
// singleton estimates) directly over mmapped bytes with unsafe.Pointer; that
// is sound only while three things hold:
//
//  1. every reconstruction sits behind an alignment guard (the Sizeof and
//     Offsetof guards are package-level canCast* checks; the alignment of
//     the actual byte slice can only be checked at the cast site);
//  2. the index built over borrowed slabs pins the backing file against
//     unmapping (the retain argument of FromSlabs);
//  3. the casted struct layouts match what the on-disk format encodes.
//
// Clause 3 is the subtle one: editing query.Estimate compiles fine, the
// runtime guards even pass (they compare the NEW layout against itself), and
// the reader silently misinterprets every old artifact. So the analyzer pins
// the layouts — size, field names, field offsets, field COUNT (a padding-
// sized addition changes no offset) — of every casted type, plus the
// snapfile format version. Changing a casted struct fails lint until the pin
// is updated, and the pin file says the update must ride with a
// formatVersion bump; changing formatVersion fails lint until
// pinnedSnapfileVersion follows. Either way the layout/version pair is
// edited consciously, together.
//
// Layouts are computed with the gc sizes for amd64 regardless of host, so
// lint results do not vary by machine; the snapfile format itself is
// declared little-endian/64-bit, and its reader copies instead of casting
// on hosts whose layout differs.
var UnsafeSlab = &Analyzer{
	Name: "unsafeslab",
	Doc: "pins the layouts of unsafe-casted slab types to the snapfile " +
		"format version and requires alignment guards and retain pins at " +
		"every zero-copy reconstruction",
	Scope: []string{
		"internal/snapfile",
		"internal/query",
		"internal/dataset",
	},
	Run: runUnsafeSlab,
}

// pinnedField is one field of a pinned struct layout.
type pinnedField struct {
	name   string
	offset int64
}

// pinnedLayout is the recorded layout of one casted type. For non-struct
// types (dataset.Term) fields is nil and underlying names the basic type.
type pinnedLayout struct {
	size       int64
	underlying string // non-struct pins: the expected underlying basic type
	fields     []pinnedField
}

// pinnedSnapfileVersion must match snapfile's formatVersion constant. Bump
// it ONLY together with the format: if a pinned layout below changed, the
// on-disk encoding changed with it.
const pinnedSnapfileVersion = 2

// pinnedLayouts records, per package (matched by import-path suffix, so the
// lint fixtures can stand in for the real packages), the layout of every
// type that snapfile reconstructs by cast. Computed against gc/amd64 sizes.
//
// DO NOT edit a layout here without bumping snapfile's formatVersion and
// pinnedSnapfileVersion above: the old artifacts on disk still hold the old
// layout.
var pinnedLayouts = map[string]map[string]pinnedLayout{
	"query": {
		"Estimate": {size: 24, fields: []pinnedField{
			{"Lower", 0}, {"Upper", 8}, {"Expected", 16},
		}},
	},
	"dataset": {
		"Term": {size: 4, underlying: "int32"},
	},
}

// slabSizes are the fixed target sizes for layout pinning (see doc above).
var slabSizes = types.SizesFor("gc", "amd64")

func runUnsafeSlab(pass *Pass) error {
	seg := pass.Path
	if i := strings.LastIndex(seg, "/"); i >= 0 {
		seg = seg[i+1:]
	}
	if pins, ok := pinnedLayouts[seg]; ok {
		checkPinnedLayouts(pass, pins)
	}
	if seg == "snapfile" {
		checkFormatVersionPin(pass)
	}
	checkCastGuards(pass)
	checkInstantiations(pass)
	checkRetainPins(pass)
	return nil
}

// checkPinnedLayouts compares each pinned type against its actual layout.
func checkPinnedLayouts(pass *Pass, pins map[string]pinnedLayout) {
	for name, pin := range pins {
		obj := pass.Pkg.Scope().Lookup(name)
		tn, ok := obj.(*types.TypeName)
		if !ok {
			pass.Reportf(pass.Files[0].Pos(),
				"pinned slab type %s is missing from package %s: if it was renamed or moved, update the pinned layout in unsafeslab.go together with a snapfile formatVersion bump", name, pass.Path)
			continue
		}
		if diff := diffLayout(tn, pin); diff != "" {
			pass.Reportf(tn.Pos(),
				"layout of %s diverges from the snapfile format pin (%s): this type is reconstructed by cast from persisted bytes, so bump snapfile's formatVersion and update the pinned layout in unsafeslab.go together", name, diff)
		}
	}
}

// diffLayout returns a human-readable description of how tn's layout differs
// from pin, or "" if it matches.
func diffLayout(tn *types.TypeName, pin pinnedLayout) string {
	t := tn.Type()
	size := slabSizes.Sizeof(t)
	if size != pin.size {
		return fmt.Sprintf("size is %d, pinned %d", size, pin.size)
	}
	st, isStruct := t.Underlying().(*types.Struct)
	if pin.fields == nil {
		if isStruct {
			return "pinned as a non-struct type but is now a struct"
		}
		if got := t.Underlying().String(); got != pin.underlying {
			return fmt.Sprintf("underlying type is %s, pinned %s", got, pin.underlying)
		}
		return ""
	}
	if !isStruct {
		return "pinned as a struct but is no longer one"
	}
	if st.NumFields() != len(pin.fields) {
		return fmt.Sprintf("has %d fields, pinned %d (even a padding-sized addition changes what old artifacts decode to)", st.NumFields(), len(pin.fields))
	}
	fields := make([]*types.Var, st.NumFields())
	for i := range fields {
		fields[i] = st.Field(i)
	}
	offsets := slabSizes.Offsetsof(fields)
	for i, pf := range pin.fields {
		if fields[i].Name() != pf.name {
			return fmt.Sprintf("field %d is %s, pinned %s", i, fields[i].Name(), pf.name)
		}
		if offsets[i] != pf.offset {
			return fmt.Sprintf("field %s is at offset %d, pinned %d", pf.name, offsets[i], pf.offset)
		}
	}
	return ""
}

// checkFormatVersionPin verifies snapfile's formatVersion constant against
// pinnedSnapfileVersion.
func checkFormatVersionPin(pass *Pass) {
	obj := pass.Pkg.Scope().Lookup("formatVersion")
	cn, ok := obj.(*types.Const)
	if !ok {
		pass.Reportf(pass.Files[0].Pos(),
			"snapfile package has no formatVersion constant: the on-disk format version is what lets readers reject artifacts with a different slab layout")
		return
	}
	v, ok := constant.Int64Val(cn.Val())
	if !ok || v != pinnedSnapfileVersion {
		pass.Reportf(cn.Pos(),
			"formatVersion is %s but unsafeslab pins version %d: after a deliberate format change, re-verify every pinned slab layout and update pinnedSnapfileVersion in unsafeslab.go", cn.Val(), pinnedSnapfileVersion)
	}
}

// checkCastGuards requires an alignment guard in every function that
// reconstructs typed memory from an unsafe.Pointer: a call to unsafe.Slice
// or a pointer conversion from unsafe.Pointer must be accompanied, in the
// same function body, by a % expression involving unsafe.Alignof.
func checkCastGuards(pass *Pass) {
	forEachFuncBody(pass, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		var casts []*ast.CallExpr
		guarded := false
		inspectShallow(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if isUnsafeSliceCall(pass, x) || isPointerReinterpret(pass, x) {
					casts = append(casts, x)
				}
			case *ast.BinaryExpr:
				if x.Op.String() == "%" && mentionsUnsafeAlignof(pass, x) {
					guarded = true
				}
			}
			return true
		})
		if guarded {
			return
		}
		for _, c := range casts {
			pass.Reportf(c.Pos(),
				"unsafe slice reconstruction without an alignment guard in the same function: check uintptr(p)%%unsafe.Alignof(...) == 0 before the cast — a misaligned mmap window makes every load undefined")
		}
	})
}

// isUnsafeSliceCall reports whether call is unsafe.Slice(...).
func isUnsafeSliceCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Slice" {
		return false
	}
	return isUnsafePkgIdent(pass, sel.X)
}

// isPointerReinterpret reports whether call is a conversion of an
// unsafe.Pointer value to a typed pointer — (*T)(p).
func isPointerReinterpret(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false
	}
	if _, isPtr := tv.Type.Underlying().(*types.Pointer); !isPtr {
		return false
	}
	argT := pass.Info.TypeOf(call.Args[0])
	if argT == nil {
		return false
	}
	b, ok := argT.Underlying().(*types.Basic)
	return ok && b.Kind() == types.UnsafePointer
}

// mentionsUnsafeAlignof reports whether unsafe.Alignof appears anywhere
// inside e.
func mentionsUnsafeAlignof(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Alignof" && isUnsafePkgIdent(pass, sel.X) {
			found = true
		}
		return !found
	})
	return found
}

// isUnsafePkgIdent reports whether e is the package qualifier "unsafe".
func isUnsafePkgIdent(pass *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "unsafe"
}

// checkInstantiations verifies that in-package generic functions whose
// bodies perform unsafe reconstruction are only instantiated with pinned or
// basic element types — a castSlice[NewStruct] with an unpinned NewStruct
// would bypass the layout pin entirely.
func checkInstantiations(pass *Pass) {
	// Generic in-package functions that use unsafe in their bodies.
	unsafeGenerics := make(map[*types.Func]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.TypeParams == nil {
				continue
			}
			usesUnsafe := false
			inspectShallow(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if isUnsafeSliceCall(pass, call) || isPointerReinterpret(pass, call) {
						usesUnsafe = true
					}
				}
				return !usesUnsafe
			})
			if !usesUnsafe {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				unsafeGenerics[fn] = true
			}
		}
	}
	if len(unsafeGenerics) == 0 {
		return
	}
	for id, inst := range pass.Info.Instances {
		fn, ok := pass.Info.Uses[id].(*types.Func)
		if !ok || !unsafeGenerics[fn.Origin()] {
			continue
		}
		for i := 0; i < inst.TypeArgs.Len(); i++ {
			arg := inst.TypeArgs.At(i)
			if typeArgPinned(arg) {
				continue
			}
			pass.Reportf(id.Pos(),
				"%s instantiated with %s, whose layout is not pinned: every type reconstructed from persisted bytes must have its size and field offsets pinned in unsafeslab.go (and format changes need a snapfile version bump)",
				fn.Name(), arg.String())
		}
	}
}

// typeArgPinned reports whether a type argument to an unsafe-reconstructing
// generic is accounted for: a basic fixed-size type, or a named type pinned
// in pinnedLayouts under its package's final path segment.
func typeArgPinned(t types.Type) bool {
	if b, ok := t.(*types.Basic); ok {
		switch b.Kind() {
		case types.Int8, types.Int16, types.Int32, types.Int64,
			types.Uint8, types.Uint16, types.Uint32, types.Uint64,
			types.Float32, types.Float64:
			return true
		}
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	seg := obj.Pkg().Path()
	if i := strings.LastIndex(seg, "/"); i >= 0 {
		seg = seg[i+1:]
	}
	pins, ok := pinnedLayouts[seg]
	if !ok {
		return false
	}
	_, ok = pins[obj.Name()]
	return ok
}

// checkRetainPins flags FromSlabs calls whose retain argument (the last one)
// is a nil literal: an index over borrowed slabs without a retain pin lets
// the backing mmap be unmapped while readers still hold slice views.
func checkRetainPins(pass *Pass) {
	forEachFuncBody(pass, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		inspectShallow(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Name() != "FromSlabs" || len(call.Args) == 0 {
				return true
			}
			last := ast.Unparen(call.Args[len(call.Args)-1])
			if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
				pass.Reportf(call.Pos(),
					"FromSlabs called with a nil retain pin: an index over borrowed slabs must keep the backing file alive, or its slices dangle after Close unmaps the window")
			}
			return true
		})
	})
}
