package fedguard

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsReferencesExist keeps the prose honest about the tree: every
// back-ticked examples/, cmd/, internal/ or benchmark/ path and every
// `make <target>` that README.md, DESIGN.md or EXPERIMENTS.md names must
// exist. Output paths (results/…) and patterns (*, {a,b}, <id>, …) are
// not references and are skipped.
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
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
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
