package blinktree_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"blinktree"
	"blinktree/internal/obs"
	"blinktree/internal/server"
)

// TestExportedSymbolsDocumented is a self-contained documentation lint (the
// container has no third-party linters): every exported type, function,
// method, constant and variable in the public package and the durability
// packages (internal/wal, internal/storage) must carry a doc comment, and
// each package must have a package comment. The durability contract of this
// codebase lives in godoc; an undocumented exported symbol is a contract
// nobody can rely on.
func TestExportedSymbolsDocumented(t *testing.T) {
	for _, dir := range []string{".", "internal/wal", "internal/storage", "internal/sim", "internal/resp", "internal/server"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			if strings.HasSuffix(name, "_test") || name == "main" {
				continue
			}
			hasPkgDoc := false
			for fname, f := range pkg.Files {
				if strings.HasSuffix(fname, "_test.go") {
					continue
				}
				if f.Doc != nil {
					hasPkgDoc = true
				}
				lintFile(t, fset, f)
			}
			if !hasPkgDoc {
				t.Errorf("%s: package %s has no package comment", dir, name)
			}
		}
	}
}

// TestServerVerbsDocumented cross-checks the server's wire-protocol surface
// against its specification: every verb registered in the dispatch table
// (the `verbs` map literal in internal/server/server.go) must have a
// `### VERB` section in PROTOCOL.md, and PROTOCOL.md must not document a
// verb the server does not implement. A verb that exists only in code is an
// undocumented protocol; one that exists only in the spec is vaporware.
func TestServerVerbsDocumented(t *testing.T) {
	registered := dispatchTableVerbs(t)
	documented := protocolDocVerbs(t)
	for v := range registered {
		if !documented[v] {
			t.Errorf("verb %s is in the server dispatch table but has no `### %s` section in PROTOCOL.md", v, v)
		}
	}
	for v := range documented {
		if !registered[v] {
			t.Errorf("PROTOCOL.md documents `### %s` but the server dispatch table has no such verb", v)
		}
	}
	if len(registered) == 0 || len(documented) == 0 {
		t.Fatalf("found %d registered and %d documented verbs; the lint is parsing nothing", len(registered), len(documented))
	}
}

// TestMetricFamiliesDocumented cross-checks the metric surface against the
// operator's manual. It scrapes a live admin endpoint (the tree's series
// from blinkmetrics plus the server's), takes every `# TYPE` family, and
// requires each to have a row in OPERATIONS.md's metric catalogue — family,
// type, unit, meaning — with the type the scrape declares. In the other
// direction every blinktree_* name anywhere in OPERATIONS.md must be an
// emitted family, so the manual cannot keep describing a series the code no
// longer has.
func TestMetricFamiliesDocumented(t *testing.T) {
	if !obs.Compiled {
		t.Skip("observability is compiled out: the histogram families are not emitted")
	}
	tree, err := blinktree.Open(blinktree.Options{Observability: &blinktree.Observability{Metrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	rec := httptest.NewRecorder()
	server.AdminHandler(server.New(tree, server.Config{})).ServeHTTP(rec,
		httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	emitted := map[string]string{} // family -> type
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			emitted[f[2]] = f[3]
		}
	}
	if len(emitted) < 40 {
		t.Fatalf("scrape declared %d families; the lint is parsing nothing", len(emitted))
	}

	doc, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `(blinktree_[a-z_]+)(?:\\{[^`]*\\})?` \\| (\\w+) \\| [^|\\s][^|]* \\| [^|\\s][^|]* \\|$")
	catalogued := map[string]string{}
	for _, m := range row.FindAllStringSubmatch(string(doc), -1) {
		catalogued[m[1]] = m[2]
	}
	for fam, typ := range emitted {
		switch got, ok := catalogued[fam]; {
		case !ok:
			t.Errorf("%s (%s) is emitted but has no `| family | type | unit | meaning |` row in OPERATIONS.md", fam, typ)
		case got != typ:
			t.Errorf("%s: OPERATIONS.md says %s, the scrape says %s", fam, got, typ)
		}
	}
	for _, name := range regexp.MustCompile("blinktree_[a-z_]+").FindAllString(string(doc), -1) {
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(name, suffix); emitted[fam] == "histogram" {
				base = fam
			}
		}
		if _, ok := emitted[base]; !ok {
			t.Errorf("OPERATIONS.md names %s, which is not an emitted metric family", name)
		}
	}
}

// dispatchTableVerbs parses internal/server/server.go and returns the string
// keys of the `verbs` map composite literal.
func dispatchTableVerbs(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "internal/server/server.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, decl := range f.Decls {
		d, ok := decl.(*ast.GenDecl)
		if !ok || d.Tok != token.VAR {
			continue
		}
		for _, spec := range d.Specs {
			s, ok := spec.(*ast.ValueSpec)
			if !ok || len(s.Names) != 1 || s.Names[0].Name != "verbs" || len(s.Values) != 1 {
				continue
			}
			lit, ok := s.Values[0].(*ast.CompositeLit)
			if !ok {
				t.Fatalf("verbs is not a composite literal")
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.BasicLit)
				if !ok || key.Kind != token.STRING {
					t.Fatalf("verbs key %v is not a string literal", kv.Key)
				}
				out[strings.Trim(key.Value, `"`)] = true
			}
		}
	}
	return out
}

// protocolDocVerbs returns the set of `### VERB` headings in PROTOCOL.md.
func protocolDocVerbs(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, ok := strings.CutPrefix(sc.Text(), "### ")
		if !ok {
			continue
		}
		name = strings.TrimSpace(name)
		if name != "" && name == strings.ToUpper(name) && !strings.Contains(name, " ") {
			out[name] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func lintFile(t *testing.T, fset *token.FileSet, f *ast.File) {
	t.Helper()
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				t.Errorf("%s: exported %s %s has no doc comment",
					fset.Position(d.Pos()), declKind(d), d.Name.Name)
			}
		case *ast.GenDecl:
			lintGenDecl(t, fset, d)
		}
	}
}

func declKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// lintGenDecl checks const/var/type declarations. A doc comment on the decl
// group covers every name in it (the iota-enum idiom); otherwise each
// exported spec needs its own comment.
func lintGenDecl(t *testing.T, fset *token.FileSet, d *ast.GenDecl) {
	t.Helper()
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !groupDoc && s.Doc == nil {
				t.Errorf("%s: exported type %s has no doc comment",
					fset.Position(s.Pos()), s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
					t.Errorf("%s: exported %s %s has no doc comment",
						fset.Position(name.Pos()), d.Tok, name.Name)
				}
			}
		}
	}
}
