package cmif_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/api.golden from the current sources")

// TestFacadeSurface pins every exported declaration of the package's
// non-test sources — signatures only, doc comments and bodies stripped,
// one sorted entry each — against testdata/api.golden, so a change that
// grows or shrinks the facade shows as a reviewable diff. -update
// rewrites the golden.
func TestFacadeSurface(t *testing.T) {
	got := facadeSurface(t)
	path := filepath.Join("testdata", "api.golden")
	if *updateSurface {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("exported surface differs from %s (rerun with -update and review the diff):\n%s",
			path, surfaceDiff(string(want), got))
	}
}

// facadeSurface renders the exported declarations of the package in the
// current directory, sorted.
func facadeSurface(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "repro/cmif")
	if err != nil {
		t.Fatal(err)
	}

	var entries []string
	render := func(node any) {
		var b bytes.Buffer
		if err := (&printer.Config{Mode: printer.UseSpaces, Tabwidth: 4}).Fprint(&b, fset, node); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, b.String())
	}
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			for _, spec := range v.Decl.Specs {
				vs := spec.(*ast.ValueSpec)
				vs.Doc, vs.Comment = nil, nil
				render(&ast.GenDecl{Tok: v.Decl.Tok, Specs: []ast.Spec{vs}})
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			f.Decl.Doc, f.Decl.Body = nil, nil
			render(f.Decl)
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		for _, spec := range typ.Decl.Specs {
			ts := spec.(*ast.TypeSpec)
			ts.Doc, ts.Comment = nil, nil
			stripFieldComments(ts.Type)
			render(&ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{ts}})
		}
		values(typ.Consts)
		values(typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	slices.Sort(entries)
	return strings.Join(entries, "\n") + "\n"
}

// stripFieldComments drops the doc and line comments of struct fields
// and interface methods, which the printer would otherwise render.
func stripFieldComments(typ ast.Expr) {
	var fields *ast.FieldList
	switch x := typ.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return
	}
	for _, f := range fields.List {
		f.Doc, f.Comment = nil, nil
	}
}

// surfaceDiff lists the entries only one side holds, line by line.
func surfaceDiff(want, got string) string {
	wantLines := strings.Split(want, "\n")
	gotLines := strings.Split(got, "\n")
	var b strings.Builder
	for _, l := range wantLines {
		if !slices.Contains(gotLines, l) {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range gotLines {
		if !slices.Contains(wantLines, l) {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
