package tencentrec

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// docTestName is a test, benchmark or fuzz target named in prose; a
	// prefix is enough, since the documents name families of them.
	docTestName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	goFuncDecl  = regexp.MustCompile(`(?m)^func (\w+)\(`)
	// designCite is a citation of a DESIGN.md section; designCiteMore
	// reads what follows it: quoted titles of that section, or further
	// sections ("§8, §10 "Tick order", §17").
	designCite     = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)`)
	designCiteMore = regexp.MustCompile(`^(?:,|;| and)?\s*(?:"([^"]+)"|§(\d+))`)
	designHeading  = regexp.MustCompile(`(?m)^## (\d+)\. `)
	// commentBreak joins a line-wrapped citation in a Go or shell comment.
	commentBreak = regexp.MustCompile(`\s*\n\s*(?://|#)?\s*`)
)

// TestDocsNameCodeThatExists holds the documents to the code: every test,
// benchmark or fuzz target DESIGN.md, EXPERIMENTS.md and README.md name is
// declared somewhere in the repository, and every DESIGN.md section cited
// from code, scripts or the other documents exists, with the titles the
// citation quotes.
func TestDocsNameCodeThatExists(t *testing.T) {
	docs := map[string]string{}
	for _, name := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", "ROADMAP.md"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}
	var funcs, citing []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext == ".go" || ext == ".sh" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if ext == ".go" {
				for _, m := range goFuncDecl.FindAllStringSubmatch(string(b), -1) {
					funcs = append(funcs, m[1])
				}
			}
			citing = append(citing, path)
			docs[path] = string(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		seen := map[string]bool{}
		for _, name := range docTestName.FindAllString(docs[doc], -1) {
			if seen[name] {
				continue
			}
			seen[name] = true
			if !prefixOfAny(name, funcs) {
				t.Errorf("%s names %s, which no .go file declares", doc, name)
			}
		}
	}

	sections := designSections(docs["DESIGN.md"])
	for _, src := range append(citing, "README.md", "EXPERIMENTS.md", "ROADMAP.md") {
		text := commentBreak.ReplaceAllString(docs[src], " ")
		for _, loc := range designCite.FindAllStringSubmatchIndex(text, -1) {
			n := text[loc[2]:loc[3]]
			rest := text[loc[1]:]
			for {
				sec, ok := sections[n]
				if !ok {
					t.Errorf("%s cites DESIGN.md §%s, which has no such section", src, n)
				}
				m := designCiteMore.FindStringSubmatchIndex(rest)
				if m == nil {
					break
				}
				if m[2] >= 0 {
					if title := rest[m[2]:m[3]]; ok && !sec.hasTitle(title) {
						t.Errorf("%s cites DESIGN.md §%s %q, which is neither its heading nor a lead-in there", src, n, title)
					}
				} else {
					n = rest[m[4]:m[5]]
				}
				rest = rest[m[1]:]
			}
		}
	}
}

// designSection is a numbered section of DESIGN.md, its text with
// whitespace collapsed so that a quoted title may wrap.
type designSection struct{ heading, text string }

// hasTitle reports whether title is the section's heading or one of its
// lead-ins ("**Title" or "*Title").
func (s designSection) hasTitle(title string) bool {
	return strings.Contains(s.heading, title) || strings.Contains(s.text, "*"+title)
}

func designSections(design string) map[string]designSection {
	out := map[string]designSection{}
	heads := designHeading.FindAllStringSubmatchIndex(design, -1)
	for i, h := range heads {
		end := len(design)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		heading, _, _ := strings.Cut(design[h[1]:end], "\n")
		out[design[h[2]:h[3]]] = designSection{heading, strings.Join(strings.Fields(design[h[0]:end]), " ")}
	}
	return out
}

func prefixOfAny(name string, funcs []string) bool {
	for _, f := range funcs {
		if strings.HasPrefix(f, name) {
			return true
		}
	}
	return false
}
