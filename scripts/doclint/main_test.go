package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeFixture writes content to name inside dir and returns its path.
func writeFixture(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// trimPath strips the document path each violation starts with, leaving
// its position and message.
func trimPath(violations []string, path string) []string {
	var out []string
	for _, v := range violations {
		out = append(out, strings.TrimPrefix(v, path))
	}
	return out
}

func TestAPIDocViolations(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      []string
	}{
		{
			name: "documented",
			src: `package p

// F is documented.
func F() {}

// T is documented.
type T struct{}

// M is documented.
func (T) M() {}

// Grouped constants share the group's doc comment.
const (
	A = 1
	B = 2
)

// V is documented.
var V = 3

var W = 4 // W's trailing comment documents it.

func unexported() {}

type hidden struct{}
`,
		},
		{
			name: "missing",
			src: `package p

func F() {}

type T struct{}

func (T) M() {}

const C = 1

var (
	V = 2
	w = 3
)
`,
			want: []string{
				":3:1: exported function F has no doc comment",
				":5:6: exported type T has no doc comment",
				":7:1: exported method M has no doc comment",
				":9:7: exported const C has no doc comment",
				":12:2: exported var V has no doc comment",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeFixture(t, t.TempDir(), "api.go", tc.src)
			if got := trimPath(apiDocViolations(path), path); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %q, want %q", got, tc.want)
			}
		})
	}
	path := writeFixture(t, t.TempDir(), "api.go", "package p\n\nfunc {\n")
	if got := apiDocViolations(path); len(got) != 1 || !strings.HasPrefix(got[0], path+": ") {
		t.Errorf("unparsable file: got %q, want one parse error", got)
	}
}

func TestLinkViolations(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "exists.md", "# Exists\n")
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, doc string
		want      []string
	}{
		{"relative file", "[ok](exists.md)", nil},
		{"relative dir", "[ok](sub/)", nil},
		{"file anchor", "[ok](exists.md#exists)", nil},
		{"in-page anchor", "[ok](#section)", nil},
		{"http", "[ok](https://example.com/missing.md)", nil},
		{"mailto", "[ok](mailto:someone@example.com)", nil},
		{"dead", "see [dead](missing.md) and [ok](exists.md)", []string{`: dead relative link "missing.md"`}},
		{"dead with anchor", "[dead](gone.md#part)", []string{`: dead relative link "gone.md#part"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeFixture(t, dir, "doc.md", tc.doc+"\n")
			if got := trimPath(linkViolations(path), path); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %q, want %q", got, tc.want)
			}
		})
	}
	if got := linkViolations(filepath.Join(dir, "absent.md")); len(got) != 1 {
		t.Errorf("unreadable document: got %q, want one violation", got)
	}
}

func TestGoBlockViolations(t *testing.T) {
	const fence = "```"
	for _, tc := range []struct {
		name, doc string
		want      []string
	}{
		{
			name: "formatted file",
			doc:  "# Doc\n\n" + fence + "go\npackage main\n\nfunc main() {}\n" + fence + "\n",
		},
		{
			name: "formatted statements",
			doc:  fence + "go\nsc := tapas.QuickScenario()\nif err != nil {\n\treturn err\n}\n" + fence + "\n",
		},
		{
			name: "other languages are skipped",
			doc:  fence + "sh\ngo  run  ./cmd/tapas-sim\n" + fence + "\n",
		},
		{
			name: "unformatted statements",
			doc:  "# Doc\n\n" + fence + "go\nx  :=  1\n" + fence + "\n",
			want: []string{":3: " + fence + "go block is not gofmt-clean"},
		},
		{
			name: "unparsable block",
			doc:  fence + "go\nfunc (\n" + fence + "\n",
			want: []string{":1: " + fence + "go block is not gofmt-clean"},
		},
		{
			name: "unterminated",
			doc:  "# Doc\n" + fence + "go\nx := 1\n",
			want: []string{":2: unterminated " + fence + "go block"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeFixture(t, t.TempDir(), "doc.md", tc.doc)
			if got := trimPath(goBlockViolations(path), path); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %q, want %q", got, tc.want)
			}
		})
	}
}
