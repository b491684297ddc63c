package fedguard

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// apiHooks are the internal objects that only tests call or set, each
// with the reason it stays.
var apiHooks = map[string]string{
	"aggregate.KrumScores":               "BenchmarkKrumScores in make bench-guard measures Krum's score kernel alone",
	"tensor.SetWorkers":                  "tests and benchmarks pin the kernel width before building a federation",
	"classifier.Set.Built":               "the worker-set tests read how many workers a set has built",
	"classifier.Set.Idle":                "the worker-set tests read how many workers are back in the set",
	"fednet.Server.Kill":                 "the kill/resume drills crash a server mid-round",
	"cvae.CVAE.Step":                     "BenchmarkCVAEStep in make bench-guard measures one training step alone; Train runs its own loop",
	"fednet.ClientOptions.RedialBackoff": "the resume drills redial every 10 ms instead of the 250 ms default",
}

// apiExempt are the internal packages whose declarations the guard does
// not check, each with the reason.
var apiExempt = map[string]string{
	"internal/faultnet": "only tests import it: the chaos and pipeline drills' fault-injecting transport",
}

// buildTags are the supported build configurations: the default amd64
// build and the scalar kernels. An object counts as used if either
// build uses it.
var buildTags = [][]string{nil, {"purego"}}

// apiPlants are compiled into package tensor on every run, to show the
// guard catches what it claims to and passes what it must.
var apiPlants = map[string]string{
	"internal/tensor/planted.go": `package tensor

import "fmt"

// Planted is exported and only calls itself.
func Planted(n int) int {
	if n > 0 {
		return Planted(n - 1)
	}
	return 0
}

func plantedDead() {}

func plantedScalar() {}

type PlantedT struct {
	Knob int
}

func (PlantedT) Used() {}

// Aggregate shares its name with every strategy's live method.
func (PlantedT) Aggregate() {}

func (p PlantedT) String() string { return fmt.Sprint(p.Knob) }

var _ = fmt.Sprint(plantedUse(PlantedT{}))

func plantedUse(p PlantedT) PlantedT {
	p.Used()
	return p
}
`,
	"internal/tensor/planted_noasm.go": `//go:build purego

package tensor

var _ = plantedScalar
`,
}

// TestInternalAPIHasCallers type-checks every non-test package of the
// repo outside examples/ — cmd/ and the benchmark module included —
// under each of buildTags, and fails on any object declared under
// internal/ that no such code refers to outside its own declaration:
// a package-level func, type, const or var, exported or not, a method,
// or a struct field. A method also counts as used when its type
// implements an interface of the program that has the method
// (fmt.Stringer reaches String, say). An exported field must also be
// set by such code — assigned, incremented, given in a composite literal
// or its address taken — or it is a knob stuck at its zero value.
func TestInternalAPIHasCallers(t *testing.T) {
	findings, err := unusedObjects(apiPlants)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"tensor.Planted":            true,
		"tensor.plantedDead":        true,
		"tensor.PlantedT.Aggregate": true,
		"tensor.PlantedT.Knob":      true,
		"tensor.PlantedT.Used":      false,
		"tensor.PlantedT.String":    false,
		"tensor.plantedScalar":      false,
	}
	var real []finding
	for _, f := range findings {
		if apiPlants[f.file] == "" {
			real = append(real, f)
		}
	}
	for name, flagged := range want {
		if got := slices.ContainsFunc(findings, func(f finding) bool { return f.name == name }); got != flagged {
			t.Errorf("planted %s: flagged %v, want %v", name, got, flagged)
		}
	}
	for _, f := range real {
		if apiHooks[f.name] == "" {
			t.Errorf("%s (%s): %s: delete it, or give it an apiHooks entry saying which test needs it", f.name, f.file, f.why)
		}
	}
	for name := range apiHooks {
		if !slices.ContainsFunc(real, func(f finding) bool { return f.name == name }) {
			t.Errorf("apiHooks lists %s, which non-test code now uses or which is gone: drop its entry", name)
		}
	}
}

type finding struct {
	name, file, why string
}

// unusedObjects runs the guard over the repo, which is the working
// directory, with the overlay's files (path → source) added as non-test
// files.
func unusedObjects(overlay map[string]string) ([]finding, error) {
	dirs := map[string][]string{} // non-test .go file names by directory
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "examples") {
				// Examples, like tests, are not callers: go build ./...
				// compiles them, but what only they use is not the
				// program's.
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			dirs[filepath.Dir(path)] = append(dirs[filepath.Dir(path)], name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range overlay {
		dirs[filepath.Dir(path)] = append(dirs[filepath.Dir(path)], filepath.Base(path))
	}

	var sortedDirs []string
	for dir := range dirs {
		sortedDirs = append(sortedDirs, dir)
	}
	slices.Sort(sortedDirs)
	a := &apiScan{
		overlay: overlay, fset: token.NewFileSet(),
		std: importer.Default(), parsed: map[string]*ast.File{},
		decls: map[token.Pos]*apiDecl{}, used: map[token.Pos]bool{}, set: map[token.Pos]bool{},
	}
	var errs []string
	for _, tags := range buildTags {
		c := &apiConfig{scan: a, dirs: dirs, pkgs: map[string]*apiPkg{}}
		c.ctx = build.Default
		c.ctx.GOOS, c.ctx.GOARCH, c.ctx.BuildTags = "linux", "amd64", tags
		c.ctx.OpenFile = a.open
		for _, dir := range sortedDirs {
			c.load(dir)
		}
		for _, p := range c.pkgs {
			for _, e := range p.errs {
				errs = append(errs, fmt.Sprintf("%s: %v", buildName(tags), e))
			}
			if p.types == nil {
				continue
			}
			for _, imp := range p.types.Imports() {
				if dir := strings.TrimPrefix(imp.Path(), "fedguard/"); apiExempt[dir] != "" {
					errs = append(errs, fmt.Sprintf("%s imports %s, which apiExempt lists as imported only by tests", p.dir, dir))
				}
			}
		}
		a.configs = append(a.configs, c)
	}
	if len(errs) > 0 {
		slices.Sort(errs)
		return nil, fmt.Errorf("type-checking the repo:\n%s", strings.Join(slices.Compact(errs), "\n"))
	}
	for _, c := range a.configs {
		c.implemented()
	}

	var out []finding
	for pos, d := range a.decls {
		why := ""
		switch {
		case !a.used[pos]:
			why = "no non-test code refers to it"
		case d.knob && !a.set[pos]:
			why = "no non-test code sets it, so it is stuck at its zero value"
		default:
			continue
		}
		out = append(out, finding{d.name, a.fset.Position(pos).Filename, why})
	}
	slices.SortFunc(out, func(x, y finding) int { return strings.Compare(x.name, y.name) })
	return out, nil
}

func buildName(tags []string) string {
	if len(tags) == 0 {
		return "default build"
	}
	return "-tags " + strings.Join(tags, ",")
}

// apiScan is the state shared by the build configurations: the parsed
// files (one AST per file, so an object has one position in every
// configuration), the objects under check and what marks them used.
type apiScan struct {
	overlay map[string]string
	fset    *token.FileSet
	std     types.Importer
	parsed  map[string]*ast.File
	configs []*apiConfig

	decls     map[token.Pos]*apiDecl
	used, set map[token.Pos]bool
}

// apiDecl is an object under check.
type apiDecl struct {
	name string
	knob bool // an exported field: it must also be set
	// own are the spans whose references do not count: the object's own
	// declaration, and for a type its methods'.
	own [][2]token.Pos
}

func (a *apiScan) open(path string) (io.ReadCloser, error) {
	if src, ok := a.overlay[path]; ok {
		return io.NopCloser(strings.NewReader(src)), nil
	}
	return os.Open(path)
}

func (a *apiScan) parse(path string) (*ast.File, error) {
	if f := a.parsed[path]; f != nil {
		return f, nil
	}
	var src any
	if s, ok := a.overlay[path]; ok {
		src = s
	}
	f, err := parser.ParseFile(a.fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	a.parsed[path] = f
	return f, nil
}

// apiConfig type-checks the repo under one build configuration.
type apiConfig struct {
	scan *apiScan
	ctx  build.Context
	dirs map[string][]string
	pkgs map[string]*apiPkg // by dir
}

type apiPkg struct {
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
	errs  []error
}

// Import resolves the repo's import paths to its directories (the
// benchmark module's path nests under the main module's) and the rest
// to the standard library's export data.
func (c *apiConfig) Import(path string) (*types.Package, error) {
	if path == "fedguard" || strings.HasPrefix(path, "fedguard/") {
		dir := strings.TrimPrefix(strings.TrimPrefix(path, "fedguard"), "/")
		if dir == "" {
			dir = "."
		}
		if p := c.load(dir); p != nil && p.types != nil {
			return p.types, nil
		}
		return nil, fmt.Errorf("no package in %s", dir)
	}
	return c.scan.std.Import(path)
}

// load parses and type-checks the package in dir, once.
func (c *apiConfig) load(dir string) *apiPkg {
	if p, ok := c.pkgs[dir]; ok {
		return p
	}
	a := c.scan
	p := &apiPkg{dir: dir}
	c.pkgs[dir] = p
	for _, name := range c.dirs[dir] {
		if ok, err := c.ctx.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				p.errs = append(p.errs, err)
			}
			continue
		}
		f, err := a.parse(filepath.Join(dir, name))
		if err != nil {
			p.errs = append(p.errs, err)
			continue
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return p
	}
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: c, Error: func(err error) { p.errs = append(p.errs, err) }}
	p.types, _ = conf.Check("fedguard/"+dir, a.fset, p.files, p.info)
	a.declare(p)
	a.refer(p)
	return p
}

// declare records the objects under check that p's files declare.
func (a *apiScan) declare(p *apiPkg) {
	if !strings.HasPrefix(p.dir, "internal/") || apiExempt[p.dir] != "" {
		return
	}
	pkg := p.types.Name()
	// add records the object id declares, once across configurations.
	add := func(id *ast.Ident, name string, knob bool, span ast.Node) bool {
		if id.Name == "_" || a.decls[id.Pos()] != nil {
			return false
		}
		a.decls[id.Pos()] = &apiDecl{name: pkg + "." + name, knob: knob, own: [][2]token.Pos{{span.Pos(), span.End()}}}
		return true
	}
	// methods are the spans of the methods added, by receiver type: a
	// type's own methods do not use it.
	methods := map[types.Object][][2]token.Pos{}
	// fields records the fields of the struct types and the methods of
	// the interface types inside n, named after owner.
	fields := func(n ast.Node, owner string) {
		ast.Inspect(n, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						add(id, owner+"."+id.Name, id.IsExported(), f)
					}
				}
			}
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, id := range m.Names {
						add(id, owner+"."+id.Name, false, m)
					}
				}
			}
			return true
		})
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if decl.Recv == nil && (name == "init" || name == "main") {
					break
				}
				if decl.Recv != nil {
					recv := receiverType(decl.Recv.List[0].Type)
					if add(decl.Name, recv.Name+"."+name, false, decl) {
						tn := p.info.Uses[recv]
						methods[tn] = append(methods[tn], [2]token.Pos{decl.Pos(), decl.End()})
					}
				} else {
					add(decl.Name, name, false, decl)
				}
				if decl.Body != nil {
					fields(decl.Body, name)
				}
			case *ast.GenDecl:
				for _, s := range decl.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Name.Name, false, s)
						fields(s.Type, s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, id.Name, false, s)
						}
						for _, v := range s.Values {
							fields(v, s.Names[0].Name)
						}
					}
				}
			}
		}
	}
	for tn, spans := range methods {
		if d := a.decls[tn.Pos()]; d != nil {
			d.own = append(d.own, spans...)
		}
	}
}

// receiverType is a method's receiver type name without its pointer or
// type parameters.
func receiverType(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e
		default:
			panic(fmt.Sprintf("receiver %T", x))
		}
	}
}

// origin maps an instantiated method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// refer marks the objects p's references use and the fields its
// statements set.
func (a *apiScan) refer(p *apiPkg) {
	for id, obj := range p.info.Uses {
		obj = origin(obj)
		d := a.decls[obj.Pos()]
		if d == nil || a.used[obj.Pos()] {
			continue
		}
		if !slices.ContainsFunc(d.own, func(s [2]token.Pos) bool { return s[0] <= id.Pos() && id.Pos() < s[1] }) {
			a.used[obj.Pos()] = true
		}
	}
	// set marks the field (or array element's field) that the
	// addressable expression x denotes, and the value-typed fields it
	// is inside of.
	var set func(x ast.Expr)
	set = func(x ast.Expr) {
		switch e := x.(type) {
		case *ast.ParenExpr:
			set(e.X)
		case *ast.IndexExpr:
			if _, ok := p.info.Types[e.X].Type.Underlying().(*types.Array); ok {
				set(e.X)
			}
		case *ast.SelectorExpr:
			if v, ok := p.info.Uses[e.Sel].(*types.Var); ok && v.IsField() {
				a.set[origin(v).Pos()] = true
				if _, ptr := p.info.Types[e.X].Type.Underlying().(*types.Pointer); !ptr {
					set(e.X)
				}
			}
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, x := range n.Lhs {
					set(x)
				}
			case *ast.IncDecStmt:
				set(n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, x := range []ast.Expr{n.Key, n.Value} {
						if x != nil {
							set(x)
						}
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					set(n.X)
				}
			case *ast.SelectorExpr:
				// A pointer method on an addressable value takes its
				// address.
				if sel := p.info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
					_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
					_, ptrX := sel.Recv().Underlying().(*types.Pointer)
					if ptrRecv && !ptrX {
						set(n.X)
					}
				}
			case *ast.MapType:
				// A map key's fields are read by its hash and equality.
				a.compared(p.info.Types[n.Key].Type)
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					a.compared(p.info.Types[n.X].Type)
				}
			case *ast.CompositeLit:
				t := p.info.Types[n].Type
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if v, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							a.set[origin(v).Pos()] = true
						}
					} else {
						a.set[origin(st.Field(i)).Pos()] = true
					}
				}
			}
			return true
		})
	}
}

// compared marks the fields of a struct type that is hashed or
// compared as a whole as used.
func (a *apiScan) compared(t types.Type) {
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := range st.NumFields() {
			a.used[origin(st.Field(i)).Pos()] = true
		}
	}
}

// implemented marks the methods that implement an interface of the
// program, given what refer found: an interface any package this
// configuration loads declares, universe's error, or an interface type
// written inline. An interface declared under internal/ counts only once
// something uses it.
func (c *apiConfig) implemented() {
	a := c.scan
	ifaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := range it.NumMethods() {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && (a.decls[tn.Pos()] == nil || a.used[tn.Pos()]) {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range c.pkgs {
		if p.types == nil {
			continue
		}
		walk(p.types)
		for x, tv := range p.info.Types {
			if _, ok := x.(*ast.InterfaceType); ok {
				addIface(tv.Type)
			}
		}
	}
	for _, p := range c.pkgs {
		if p.info == nil {
			continue
		}
		for _, obj := range p.info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || a.decls[fn.Pos()] == nil || a.used[fn.Pos()] {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil {
				continue
			}
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			own, _ := t.Underlying().(*types.Interface)
			for _, it := range ifaces[fn.Name()] {
				if it != own && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
					a.used[fn.Pos()] = true
					break
				}
			}
		}
	}
}
