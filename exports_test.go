package fedtrans

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExportAllowed reports whether an exported name may have only
// test callers: the references tests compare against (the Ref64 and
// Naive prefixes), the tensor scaffolding external test packages build
// on (Equal compares outputs within a tolerance), and the test-only
// parity harness package (the same exception CI's orphan check makes).
func testOnlyExportAllowed(dir, name string) bool {
	return strings.HasPrefix(name, "Ref64") || strings.HasPrefix(name, "Naive") ||
		dir == "internal/tensor/paritytest" ||
		dir == "internal/tensor" && (name == "Axpy" || name == "Dot" || name == "Equal" || name == "FromSlice")
}

// moduleFile is one parsed Go file and its package directory.
type moduleFile struct {
	dir string
	f   *ast.File
}

// parseModule parses the module's test or non-test files, benchmark/
// included, skipping testdata, dot and underscore directories.
func parseModule(t *testing.T, fset *token.FileSet, tests bool, mode parser.Mode) []moduleFile {
	t.Helper()
	var files []moduleFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, mode)
		if err != nil {
			return err
		}
		files = append(files, moduleFile{filepath.ToSlash(filepath.Dir(p)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestNoTestOnlyExports holds every package-level exported func, type,
// var and const in a non-test file of the module (cmd/ and internal/
// included) and of benchmark/, which builds on it, to having a
// non-test caller: some non-test file must name it other than by its
// declaring identifier or as its own methods' receiver. A name only
// tests reach is API the program does not use; delete it with its
// tests, or allow it in testOnlyExportAllowed with a reason.
//
// It parses without type information, so it does not cover methods (a
// method's callers need the receiver's type, and interface dispatch on
// top), and a same-named identifier in the declaring package counts as a
// reference.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	files := parseModule(t, fset, false, parser.SkipObjectResolution)

	// declared maps each (package directory, name) to its declaring
	// identifiers (a name may be declared once per build-tagged file).
	type object struct{ dir, name string }
	declared := map[object][]*ast.Ident{}
	declaring := map[*ast.Ident]bool{}
	declare := func(dir string, id *ast.Ident) {
		if id.IsExported() {
			declared[object{dir, id.Name}] = append(declared[object{dir, id.Name}], id)
			declaring[id] = true
		}
	}
	for _, fl := range files {
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(fl.dir, d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(fl.dir, s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(fl.dir, id)
						}
					}
				}
			}
		}
	}

	used := map[object]bool{}
	for _, fl := range files {
		imports := map[string]string{} // local name -> package dir
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if p != "fedtrans" && !strings.HasPrefix(p, "fedtrans/") {
				continue
			}
			dir := strings.TrimPrefix(strings.TrimPrefix(p, "fedtrans"), "/")
			if dir == "" {
				dir = "."
			}
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = dir
		}
		receivers := map[ast.Node]bool{}
		for _, d := range fl.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				receivers[fd.Recv] = true
			}
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FieldList:
				return !receivers[n]
			case *ast.SelectorExpr:
				// pkg.Name names an import's object; x.Name names a
				// field or method, which this test does not track.
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						used[object{dir, n.Sel.Name}] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !declaring[n] {
					used[object{fl.dir, n.Name}] = true
				}
			}
			return true
		}
		ast.Inspect(fl.f, visit)
	}

	var orphans []string
	for o, ids := range declared {
		if !used[o] && !testOnlyExportAllowed(o.dir, o.name) {
			orphans = append(orphans, fset.Position(ids[0].Pos()).String()+": exported "+o.name+" has no non-test caller")
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Error(o)
	}
}

// TestOptionsFieldsHaveCallers holds every exported field of Options to
// having a program that sets or reads it: some non-test file outside
// this package that imports it (cmd/fedtrans and benchmark/) must name
// the field, as a selector (x.F, &x.F) or a composite-literal key. A
// field no program turns is a knob only tests cover; delete it with the
// code behind it. Without type information any selector or key spelled
// like the field counts.
func TestOptionsFieldsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := parseModule(t, fset, false, parser.SkipObjectResolution)
	fields := map[string]token.Pos{}
	named := map[string]bool{}
	for _, fl := range files {
		if fl.dir == "." {
			ast.Inspect(fl.f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Options" {
					for _, f := range ts.Type.(*ast.StructType).Fields.List {
						for _, id := range f.Names {
							if id.IsExported() {
								fields[id.Name] = id.Pos()
							}
						}
					}
				}
				return true
			})
			continue
		}
		importsRoot := false
		for _, im := range fl.f.Imports {
			importsRoot = importsRoot || im.Path.Value == `"fedtrans"`
		}
		if !importsRoot {
			continue
		}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				named[n.Sel.Name] = true
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					named[id.Name] = true
				}
			}
			return true
		})
	}
	if len(fields) == 0 {
		t.Fatal("no exported Options fields found")
	}
	var unset []string
	for name, pos := range fields {
		if !named[name] {
			unset = append(unset, fset.Position(pos).String()+": Options."+name+" is named by no program")
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Error(u)
	}
}

// TestExamplesHaveOutput holds every Example function in the module's
// test files to an "// Output:" or "// Unordered output:" block: go test
// compiles an Example without one but never runs it, so it can rot.
func TestExamplesHaveOutput(t *testing.T) {
	fset := token.NewFileSet()
	for _, fl := range parseModule(t, fset, true, parser.ParseComments) {
		for _, ex := range doc.Examples(fl.f) {
			if ex.Output == "" && !ex.EmptyOutput {
				t.Errorf("%s: Example%s has no // Output: block, so go test never runs it", fset.Position(ex.Code.Pos()), ex.Name)
			}
		}
	}
}

// TestKernelLedger holds PERF.md's kernel ledger to the assembly: every
// TEXT symbol in the module's .s files outside benchmark/ has exactly
// one ledger row, which names the file that defines it, and every row
// names a symbol that exists. A change that adds a kernel adds its row,
// with what it costs to route the kernel to its Go body.
func TestKernelLedger(t *testing.T) {
	text := regexp.MustCompile(`(?m)^TEXT\s+·(\w+)\(SB\)`)
	defined := map[string]string{} // symbol -> file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".s") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, m := range text.FindAllSubmatch(b, -1) {
			if prev, ok := defined[string(m[1])]; ok {
				t.Errorf("TEXT ·%s is defined in %s and %s", m[1], prev, p)
			}
			defined[string(m[1])] = filepath.ToSlash(p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("no TEXT symbol found: the walk missed the assembly")
	}

	perf, err := os.ReadFile("PERF.md")
	if err != nil {
		t.Fatal(err)
	}
	_, ledger, ok := strings.Cut(string(perf), "\n## Kernel ledger\n")
	if !ok {
		t.Fatal("PERF.md has no \"## Kernel ledger\" section")
	}
	ledger, _, _ = strings.Cut(ledger, "\n## ")
	row := regexp.MustCompile("(?m)^\\| `(\\w+)` \\| `([^`]+)`")
	rows := map[string]int{}
	for _, m := range row.FindAllStringSubmatch(ledger, -1) {
		name, file := m[1], m[2]
		rows[name]++
		switch want, ok := defined[name]; {
		case !ok:
			t.Errorf("ledger row %s names no TEXT symbol", name)
		case file != want:
			t.Errorf("ledger row %s says %s, but the symbol is in %s", name, file, want)
		}
	}
	for name, file := range defined {
		if n := rows[name]; n != 1 {
			t.Errorf("%s: TEXT ·%s has %d ledger rows in PERF.md, want 1", file, name, n)
		}
	}
}
