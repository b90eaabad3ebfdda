package cellspot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// productionCallerAllowlist names every function and method in internal/ and
// cmd/ that no non-test code in this module calls, each with the reason it
// stays. Keys are "<dir relative to the module root>.<Func>" or
// "<dir>.<Type>.<Method>". A new entry needs a reason that holds for the
// symbol as it is, not a wish for future callers.
var productionCallerAllowlist = map[string]string{
	// Oracles and fixtures that the tests of several packages share.
	"internal/beacon.Aggregate.Equal": "equivalence oracle of the ingest and live gates",
	"internal/beacon.Aggregate.Add":   "builds per-block tallies in the aschar, beacon, cellmap, classify and macro tests",
	"internal/demand.Dataset.Equal":   "DEMAND oracle of the ingest equivalence gate; it compares the unexported tallies",
	"internal/demand.Dataset.Total":   "DEMAND normalisation check of the demand, ingest and pipeline tests",
	"internal/evolve.ChangePoints":    "offline change-point oracle of the evolve and history gates",
	"internal/netaddr.V4Block":        "block constructor of the tests of most packages",
	"internal/netaddr.V6Block":        "block constructor of the cellmap, classify, cluster, macro and netaddr tests",
	"internal/netaddr.FormatIndex":    "block-token oracle of the netaddr fuzz tests and the live checkpoint encoder's tests",

	// The fault-injection harness, and the seam that lets a test substitute a fake.
	"internal/faultline.NewFaultFS":        "fault-injection harness of the chaos, faultline, live, logio and snapshot tests",
	"internal/faultline.FaultFS.Crashed":   "crash check of the faultline tests and the snapshot crash matrix",
	"internal/faultline.NewPlan":           "fault schedule of the chaos and faultline tests",
	"internal/faultline.Trace.Faults":      "fault count of the chaos and faultline tests",
	"internal/faultline.Trace.Log":         "trace bytes the chaos determinism gate compares",
	"internal/faultline.StepInjector.Seen": "step count of the snapshot crash matrix",
	"internal/logio.Spool.SetFS":           "puts a faultline.FS under a spool in the logio fault tests",

	// Design choices the paper argues for (DESIGN §5), measured by tests and benchmarks.
	"internal/pipeline.AblationASNOnly":     "ablation run by the root benchmarks and the pipeline tests",
	"internal/pipeline.AblationThreshold":   "ablation run by the root benchmarks and the pipeline tests",
	"internal/pipeline.AblationNoASFilters": "ablation run by the root benchmarks and the pipeline tests",
	"internal/pipeline.AblationNoSmoothing": "ablation run by the root benchmarks and the pipeline tests",

	// Called from outside the module's source.
	"internal/obs/httpmw.statusWriter.Unwrap": "reached by http.ResponseController through an anonymous interface",
	"internal/cellmap.MountSource":            "named by the perfbench module",
	"internal/cluster.MountShard":             "named by the perfbench module",
	"internal/mapbuild.Build":                 "named by the perfbench module",
}

// TestEveryFunctionHasProductionCaller type-checks every package of the
// module from its non-test files and fails on any function or method in
// internal/ or cmd/ that none of those files reference, unless
// productionCallerAllowlist names it. A method counts as called when it
// implements a method of an interface that the module or its imports
// declare, since callers reach those through the interface. A reference from
// inside the symbol's own body does not count.
func TestEveryFunctionHasProductionCaller(t *testing.T) {
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	unused := unusedFuncs(pkgs)

	var missing []string
	for _, name := range unused {
		if _, ok := productionCallerAllowlist[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d functions or methods have no production caller; delete them, move them into a _test.go file, or allowlist them with a reason:\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}

	isUnused := make(map[string]bool, len(unused))
	for _, name := range unused {
		isUnused[name] = true
	}
	var stale []string
	for name := range productionCallerAllowlist {
		if !isUnused[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("allowlist entries that are gone or now have a production caller; remove them:\n\t%s",
			strings.Join(stale, "\n\t"))
	}
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct {
		Path string
		Main bool
	}
}

type checkedPackage struct {
	rel   string // directory relative to the module root
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// loadModule lists the module's packages with their dependencies, imports
// every dependency outside the module from its compiled export data, and
// type-checks the module's own packages from their non-test source files.
func loadModule() ([]*checkedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Module", "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		listed = append(listed, p)
	}

	fset := token.NewFileSet()
	exports := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fromExport := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return fromExport.Import(path)
	})

	// go list -deps prints every package after its dependencies.
	var pkgs []*checkedPackage
	for _, p := range listed {
		if p.Module == nil || !p.Module.Main {
			continue
		}
		cp := &checkedPackage{
			rel: strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, p.Module.Path), "/"),
			info: &types.Info{
				Types:      make(map[ast.Expr]types.TypeAndValue),
				Defs:       make(map[*ast.Ident]types.Object),
				Uses:       make(map[*ast.Ident]types.Object),
				Selections: make(map[*ast.SelectorExpr]*types.Selection),
			},
		}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			cp.files = append(cp.files, f)
		}
		conf := types.Config{Importer: imp}
		cp.pkg, err = conf.Check(p.ImportPath, fset, cp.files, cp.info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", p.ImportPath, err)
		}
		checked[p.ImportPath] = cp.pkg
		pkgs = append(pkgs, cp)
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unusedFuncs returns the sorted names of the functions and methods declared
// in internal/ and cmd/ that no non-test file of the module references.
func unusedFuncs(pkgs []*checkedPackage) []string {
	type decl struct {
		name     string
		pos, end token.Pos
	}
	decls := make(map[*types.Func]decl)
	for _, cp := range pkgs {
		if !strings.HasPrefix(cp.rel, "internal/") && !strings.HasPrefix(cp.rel, "cmd/") {
			continue
		}
		for _, f := range cp.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || (fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main")) {
					continue
				}
				fn := cp.info.Defs[fd.Name].(*types.Func)
				decls[fn] = decl{name: cp.rel + "." + funcName(fn), pos: fd.Pos(), end: fd.End()}
			}
		}
	}

	used := make(map[*types.Func]bool)
	mark := func(obj types.Object, at token.Pos) {
		fn, ok := obj.(*types.Func)
		if !ok {
			return
		}
		fn = fn.Origin()
		if d, ok := decls[fn]; ok && (at < d.pos || at >= d.end) {
			used[fn] = true
		}
	}
	ifaces := make(map[string][]*types.Interface) // method name -> interfaces declaring it
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, cp := range pkgs {
		walk(cp.pkg)
		for id, obj := range cp.info.Uses {
			mark(obj, id.Pos())
		}
		for sel, s := range cp.info.Selections {
			mark(s.Obj(), sel.Sel.Pos())
		}
		for _, tv := range cp.info.Types {
			if tv.IsType() {
				if _, ok := tv.Type.(*types.Named); !ok {
					addIface(tv.Type)
				}
			}
		}
	}

	var unused []string
	for fn, d := range decls {
		if used[fn] || implementsInterface(fn, ifaces) {
			continue
		}
		unused = append(unused, d.name)
	}
	sort.Strings(unused)
	return unused
}

// implementsInterface reports whether fn is a method through which its
// receiver type satisfies one of the given interfaces.
func implementsInterface(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	t := receiver(fn)
	if t == nil {
		return false
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// funcName renders fn as Func or Type.Method.
func funcName(fn *types.Func) string {
	if t := receiver(fn); t != nil {
		return t.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// receiver returns the named type a method is declared on, or nil for a
// function.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Unalias(t).(*types.Named)
}
