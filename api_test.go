package fedguard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// apiHooks are the exported internal identifiers that only tests call,
// each with the reason it stays.
var apiHooks = map[string]string{
	"aggregate.KrumScores": "BenchmarkKrumScores in make bench-guard measures Krum's score kernel alone",
	"tensor.SetWorkers":    "tests and benchmarks pin the kernel width before building a federation",
	"classifier.Set.Built": "the worker-set tests read how many workers a set has built",
	"classifier.Set.Idle":  "the worker-set tests read how many workers are back in the set",
	"fednet.Server.Kill":   "the kill/resume drills crash a server mid-round",
}

// TestInternalAPIHasCallers fails on any exported top-level func, method,
// type, const or var under internal/ that no non-test .go file of the
// repo — cmd/, examples/ and the benchmark module included — names
// outside its own declaration. The match is by name, not by type, so a
// method counts as called as soon as anything of its name is named: the
// check lets some dead code through. A method that only a standard
// library interface reaches (MarshalJSON, say) and that no code names
// would need an apiHooks entry.
func TestInternalAPIHasCallers(t *testing.T) {
	files := goFiles(t, ".")
	planted := parseSource(t, "internal/tensor/planted.go", `package tensor

func Planted(n int) int {
	if n > 0 {
		return Planted(n - 1)
	}
	return 0
}

type T struct{}

func (T) Used() {}

func use(t T) { t.Used() }
`)
	if dead := deadExports(append(slices.Clone(files), planted)); !slices.Contains(dead, "tensor.Planted") || slices.Contains(dead, "tensor.T.Used") {
		t.Fatalf("a planted dead export is not caught, or a called one is: %v", dead)
	}
	dead := deadExports(files)
	for _, name := range dead {
		if apiHooks[name] == "" {
			t.Errorf("%s is exported from internal/ and no non-test code names it: delete it, or unexport it if its package still uses it", name)
		}
	}
	for name := range apiHooks {
		if !slices.Contains(dead, name) {
			t.Errorf("apiHooks lists %s, which non-test code now names or which is gone: drop its entry", name)
		}
	}
}

type goFile struct {
	path string
	ast  *ast.File
}

// goFiles parses every non-test .go file under root, skipping hidden
// directories and testdata.
func goFiles(t *testing.T, root string) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files = append(files, parseSource(t, filepath.ToSlash(path), string(src)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func parseSource(t *testing.T, path, src string) goFile {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return goFile{path, f}
}

// deadExports returns, sorted, the exported top-level identifiers
// declared in files under internal/ that no file names outside the
// declaration itself, as pkg.Name or pkg.Type.Method.
func deadExports(files []goFile) []string {
	type decl struct {
		id       string
		path     string
		pos, end token.Pos
		name     *ast.Ident
	}
	var decls []decl
	declaring := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.ast.Decls {
			add := func(name *ast.Ident, n ast.Node, id string) {
				declaring[name] = true
				if name.IsExported() && strings.HasPrefix(f.path, "internal/") {
					decls = append(decls, decl{f.ast.Name.Name + "." + id, f.path, n.Pos(), n.End(), name})
				}
			}
			switch d := d.(type) {
			case *ast.FuncDecl:
				id := d.Name.Name
				if d.Recv != nil {
					id = receiverType(d.Recv.List[0].Type) + "." + id
				}
				add(d.Name, d, id)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, s, n.Name)
						}
					}
				}
			}
		}
	}
	type use struct {
		path string
		pos  token.Pos
	}
	uses := map[string][]use{}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declaring[id] {
				uses[id.Name] = append(uses[id.Name], use{f.path, id.Pos()})
			}
			return true
		})
	}
	var dead []string
	for _, d := range decls {
		called := slices.ContainsFunc(uses[d.name.Name], func(u use) bool {
			return u.path != d.path || u.pos < d.pos || u.pos >= d.end
		})
		if !called {
			dead = append(dead, d.id)
		}
	}
	slices.Sort(dead)
	return dead
}

// receiverType names a method's receiver type without its pointer or
// type parameters.
func receiverType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
