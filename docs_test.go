package fedguard

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocsReferencesExist keeps the prose honest about the tree: every
// back-ticked examples/, cmd/, internal/ or benchmark/ path and every
// `make <target>` that README.md, DESIGN.md or EXPERIMENTS.md names must
// exist, every flag an invocation of one of the repo's commands names
// must be one that command defines, and every `ROADMAP item N` must be a
// numbered item of ROADMAP.md. Output paths (results/…) and patterns (*,
// {a,b}, <id>, …) are not references and are skipped. The Makefile is
// held to the tree too: every -run pattern on a line must select a test
// in each package that line names, so a renamed test cannot silently
// empty a gate.
func TestDocsReferencesExist(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	ticked := regexp.MustCompile("`([^`\n]+)`")
	path := regexp.MustCompile(`^\.?/?((?:examples|cmd|internal|benchmark)/[A-Za-z0-9_./-]+)`)
	target := regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)
	flags := commandFlags(t)
	if errs := undefinedFlags("planted", []byte("run `fedsim -preset quick -no-such-flag`"), flags); len(errs) != 1 {
		t.Fatalf("a planted bad flag is not caught: %v", errs)
	}
	tests := testNames(t)
	if errs := emptyRunPatterns([]byte("\tgo test -run 'NoSuchTest' ./internal/fednet/\n"), tests); len(errs) != 1 {
		t.Fatalf("a planted -run pattern that selects nothing is not caught: %v", errs)
	}
	for _, e := range emptyRunPatterns(makefile, tests) {
		t.Error(e)
	}
	items := roadmapItems(t)
	if errs := unknownItems("planted", []byte("see ROADMAP\nitem 999"), items); len(errs) != 1 {
		t.Fatalf("a planted bad ROADMAP item is not caught: %v", errs)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range undefinedFlags(doc, text, flags) {
			t.Error(e)
		}
		for _, e := range unknownItems(doc, text, items) {
			t.Error(e)
		}
		for _, m := range ticked.FindAllSubmatch(text, -1) {
			tok := string(m[1])
			for _, mt := range target.FindAllStringSubmatch(tok, -1) {
				if !targets[mt[1]] {
					t.Errorf("%s: `%s` names make target %q, which the Makefile does not have", doc, tok, mt[1])
				}
			}
			if strings.ContainsAny(tok, "*{<…") {
				continue
			}
			if mp := path.FindStringSubmatch(tok); mp != nil {
				p := strings.TrimRight(mp[1], "./")
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s: `%s` names %s, which does not exist", doc, tok, p)
				}
			}
		}
	}
}

// commandFlags reads, from each command's source, the flags it defines:
// its own flag declarations plus, for fedsim and fednode, the ones
// experiment.BindFlags declares for both.
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`\b(?:flag|fs)\.(?:Bool|Int|Int64|Uint|Uint64|Float64|String|Duration|Func)(?:Var)?\((?:&[\w.]+,\s*)?"([\w-]+)"`)
	names := func(paths ...string) map[string]bool {
		set := map[string]bool{"h": true, "help": true}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				set[string(m[1])] = true
			}
		}
		return set
	}
	out := map[string]map[string]bool{}
	for _, cmd := range []string{"fedsim", "fednode", "fedbench", "fedtrace", "benchjson"} {
		srcs, err := filepath.Glob(filepath.Join("cmd", cmd, "*.go"))
		if err != nil || len(srcs) == 0 {
			t.Fatalf("cmd/%s: no sources (%v)", cmd, err)
		}
		var paths []string
		for _, p := range srcs {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			paths = append(paths, p)
			if src, _ := os.ReadFile(p); strings.Contains(string(src), "experiment.BindFlags(") {
				paths = append(paths, filepath.Join("internal", "experiment", "cli.go"))
			}
		}
		out[cmd] = names(paths...)
	}
	return out
}

// undefinedFlags returns one message per flag that an invocation in
// text's code — inline code spans and fenced blocks, a command continued
// over trailing backslashes read as one line — names and its command
// does not define.
func undefinedFlags(doc string, text []byte, flags map[string]map[string]bool) []string {
	var code []string
	fenced := false
	var prose strings.Builder
	for _, line := range strings.Split(strings.ReplaceAll(string(text), "\\\n", " "), "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			code = append(code, line)
		default:
			prose.WriteString(line + "\n")
		}
	}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(prose.String(), -1) {
		code = append(code, strings.ReplaceAll(m[1], "\n", " "))
	}
	invocation := regexp.MustCompile(`(?:^|[\s/(])(fedsim|fednode|fedbench|fedtrace|benchjson)((?:[ \t]+[^\s|;&<>()` + "`" + `]+)*)`)
	flag := regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	var errs []string
	for _, snippet := range code {
		for _, m := range invocation.FindAllStringSubmatch(snippet, -1) {
			for _, arg := range strings.Fields(m[2]) {
				if f := flag.FindStringSubmatch(arg); f != nil && !flags[m[1]][f[1]] {
					errs = append(errs, doc+": `"+strings.TrimSpace(m[0])+"` names -"+f[1]+", which "+m[1]+" does not define")
				}
			}
		}
	}
	return errs
}

// testNames returns a lookup of the func Test… names declared in a
// package directory's _test.go files.
func testNames(t *testing.T) func(dir string) []string {
	decl := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	return func(dir string) []string {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no test files (%v)", dir, err)
		}
		var names []string
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
		}
		return names
	}
}

// emptyRunPatterns returns one message per package a Makefile line names
// in which the line's -run pattern selects no test: go test runs such a
// line green while it tests nothing. A pattern is matched as go test
// matches it, its part before the first / against the top-level test
// names; '^$', which selects nothing on purpose beside -bench and
// -fuzz, is skipped.
func emptyRunPatterns(makefile []byte, testsIn func(dir string) []string) []string {
	run := regexp.MustCompile(`-run '([^']*)'`)
	var errs []string
	for _, line := range strings.Split(string(makefile), "\n") {
		m := run.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pattern := strings.ReplaceAll(m[1], "$$", "$")
		if pattern == "^$" {
			continue
		}
		top, err := regexp.Compile(strings.SplitN(pattern, "/", 2)[0])
		if err != nil {
			errs = append(errs, fmt.Sprintf("Makefile: -run '%s': %v", m[1], err))
			continue
		}
		for _, arg := range strings.Fields(line) {
			if arg != "." && !strings.HasPrefix(arg, "./") {
				continue
			}
			dir := strings.Trim(strings.TrimPrefix(arg, "./"), "/")
			if dir == "" {
				dir = "."
			}
			if !slices.ContainsFunc(testsIn(dir), top.MatchString) {
				errs = append(errs, fmt.Sprintf("Makefile: -run '%s' selects no test in %s", m[1], arg))
			}
		}
	}
	return errs
}

// roadmapItems returns the numbers of ROADMAP.md's numbered items.
func roadmapItems(t *testing.T) map[string]bool {
	t.Helper()
	src, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	items := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^(\d+)\. `).FindAllSubmatch(src, -1) {
		items[string(m[1])] = true
	}
	if len(items) == 0 {
		t.Fatal("ROADMAP.md numbers no items")
	}
	return items
}

// unknownItems returns one message per `ROADMAP item N`, wrapped or not,
// in text whose N is not one of items.
func unknownItems(doc string, text []byte, items map[string]bool) []string {
	var errs []string
	for _, m := range regexp.MustCompile(`ROADMAP\s+items?\s+(\d+)`).FindAllSubmatch(text, -1) {
		if !items[string(m[1])] {
			errs = append(errs, fmt.Sprintf("%s: names ROADMAP item %s, which ROADMAP.md does not number", doc, m[1]))
		}
	}
	return errs
}
