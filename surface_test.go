package repro

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update", false, "rewrite SURFACE.txt from the source tree")

// surfaceJSON names the structs whose JSON field names are part of the
// surface: the smid job document, the workload knobs it resolves to, and
// the cluster statistics every result carries.
var surfaceJSON = []struct{ dir, typ string }{
	{"internal/service", "JobSpec"},
	{"internal/workload", "Params"},
	{"internal/core", "Stats"},
}

// TestSurface holds SURFACE.txt to the source tree: every exported
// identifier under internal/, the JSON field names of the job, workload
// and stats documents, and the non-test line count of each package. The
// file's diff is how a change shows the knobs and exports it added or
// removed and the packages it grew or shrank.
func TestSurface(t *testing.T) {
	got, err := surface()
	if err != nil {
		t.Fatal(err)
	}
	if *updateSurface {
		if err := os.WriteFile("SURFACE.txt", got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("SURFACE.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SURFACE.txt is stale; regenerate it with\n\tgo test -run TestSurface -update .\nand review its diff:\n%s",
			lineDiff(string(want), string(got)))
	}
}

// surface renders the surface document from the source under internal/.
func surface() ([]byte, error) {
	var idents, fields, counts []string
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		pkg := strings.TrimPrefix(filepath.ToSlash(dir), "internal/")
		fset := token.NewFileSet()
		lines := 0
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			lines += bytes.Count(src, []byte("\n"))
			f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			idents = append(idents, exported(pkg, f)...)
			for _, s := range surfaceJSON {
				if filepath.ToSlash(dir) == s.dir {
					fields = append(fields, jsonFields(pkg+"."+s.typ, s.typ, f)...)
				}
			}
		}
		if lines > 0 {
			counts = append(counts, fmt.Sprintf("%s %d", pkg, lines))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(idents)
	var b bytes.Buffer
	b.WriteString("# Generated by TestSurface (go test -run TestSurface -update .); do not edit.\n")
	for _, sec := range []struct {
		title string
		lines []string
	}{
		{"exported identifiers under internal/ (package.Name, package.Type.Method)", idents},
		{"JSON field names (package.Type field)", fields},
		{"non-test lines per package", counts},
	} {
		fmt.Fprintf(&b, "\n## %s\n", sec.title)
		for _, l := range sec.lines {
			b.WriteString(l + "\n")
		}
	}
	return b.Bytes(), nil
}

// exported lists a file's exported top-level names and the exported
// methods of its exported types.
func exported(pkg string, f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				out = append(out, pkg+"."+d.Name.Name)
			} else if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(recv) {
				out = append(out, pkg+"."+recv+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, pkg+"."+s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, pkg+"."+n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName strips pointers and type parameters from a method
// receiver type.
func receiverName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// jsonFields lists the names encoding/json gives the fields of struct
// typ, if f declares it: the json tag's name, else the Go field name.
func jsonFields(label, typ string, f *ast.File) []string {
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != typ {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return false
		}
		for _, field := range st.Fields.List {
			tag := ""
			if field.Tag != nil {
				raw, _ := strconv.Unquote(field.Tag.Value)
				tag, _, _ = strings.Cut(reflect.StructTag(raw).Get("json"), ",")
			}
			for _, name := range field.Names {
				switch {
				case tag == "-" || !name.IsExported():
				case tag != "":
					out = append(out, label+" "+tag)
				default:
					out = append(out, label+" "+name.Name)
				}
			}
		}
		return false
	})
	return out
}

// lineDiff lists the lines only one of two documents has, marked - (old)
// and + (new).
func lineDiff(old, cur string) string {
	oldLines, curLines := strings.Split(old, "\n"), strings.Split(cur, "\n")
	var b strings.Builder
	for _, l := range oldLines {
		if !slices.Contains(curLines, l) {
			b.WriteString("-" + l + "\n")
		}
	}
	for _, l := range curLines {
		if !slices.Contains(oldLines, l) {
			b.WriteString("+" + l + "\n")
		}
	}
	return b.String()
}
