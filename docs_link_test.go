package ic2mpi_test

// Markdown link check over README.md and docs/: every relative link must
// point at a file that exists, and every fragment into a Markdown file
// must match a heading there. CI runs this as its link-check step.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ic2mpi/internal/balance"
	"ic2mpi/internal/experiments"
	"ic2mpi/internal/fault"
	"ic2mpi/internal/mpi"
	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/partition"
)

// mdLink matches inline links [text](target); images share the syntax.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func markdownFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	return files
}

func TestMarkdownLinks(t *testing.T) {
	for _, file := range markdownFiles(t) {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue // external; not checked offline
			}
			path, fragment, _ := strings.Cut(target, "#")
			if path == "" {
				// Same-file anchor.
				checkAnchor(t, file, file, fragment)
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), path)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q: %v", file, target, err)
				continue
			}
			if fragment != "" && strings.HasSuffix(resolved, ".md") {
				checkAnchor(t, file, resolved, fragment)
			}
		}
	}
}

// mdMention matches a Markdown file named in Go source, bare or under a
// directory.
var mdMention = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// TestGoSourceDocReferences: every Markdown file a .go file names, in a
// comment or a string and in test files too, must exist at the repo root
// or under docs/. Comments and a report note once cited two documents
// that were never written.
func TestGoSourceDocReferences(t *testing.T) {
	exists := func(path string) bool { _, err := os.Stat(path); return err == nil }
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, .github, build caches
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, name := range mdMention.FindAllString(string(body), -1) {
			if !exists(name) && !exists(filepath.Join("docs", name)) {
				t.Errorf("%s: names %s, which is neither at the repo root nor under docs/", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScenarioAxisTableCoversRegistries is the drift fence between the
// hand-written axis table in docs/scenarios.md and the code's registries:
// the table must have a row for every experiments.AxisNames() entry, and
// the row of each name-valued axis must name every value its registry
// accepts.
func TestScenarioAxisTableCoversRegistries(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("docs", "scenarios.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(body), "| Axis | Values |\n")
	if !ok {
		t.Fatal("docs/scenarios.md: no axis table")
	}
	rows := make(map[string]string) // axis name → its Values cell
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			break // end of the table
		}
		rows[strings.Trim(cells[1], " `")] = cells[2]
	}
	values := map[string][]string{
		"partitioner": partition.Names(),
		"balancer":    balance.Names(),
		"network":     netmodel.Names(),
		"perturb":     fault.Names(),
		"kernel":      mpi.KernelNames(),
	}
	for _, axis := range experiments.AxisNames() {
		row, ok := rows[axis]
		if !ok {
			t.Errorf("docs/scenarios.md: axis table has no row for %q", axis)
		}
		for _, v := range values[axis] {
			if !strings.Contains(row, "`"+v+"`") {
				t.Errorf("docs/scenarios.md: axis %q row does not name the value %q", axis, v)
			}
		}
	}
}

// docgenMarkerLine classifies a line against the docgen marker grammar,
// built from the same constants cmd/docgen renders with so the two
// definitions cannot drift apart. It returns kind "begin" or "end" plus
// the section id, or "" when the line is not a well-formed marker.
func docgenMarkerLine(line string) (kind, id string) {
	t := strings.TrimSpace(line)
	if !strings.HasSuffix(t, experiments.DocgenClose) {
		return "", ""
	}
	switch {
	case strings.HasPrefix(t, experiments.DocgenBegin):
		kind, id = "begin", strings.TrimPrefix(t, experiments.DocgenBegin)
	case strings.HasPrefix(t, experiments.DocgenEnd):
		kind, id = "end", strings.TrimPrefix(t, experiments.DocgenEnd)
	default:
		return "", ""
	}
	id = strings.TrimSuffix(id, experiments.DocgenClose)
	if id == "" || strings.ContainsAny(id, " \t") {
		return "", ""
	}
	return kind, id
}

// TestDocgenMarkersBalanced validates the <!-- docgen --> marker pairs in
// README.md and every docs/*.md file: every begin has a matching end with
// the same section id, no nesting, no stray ends, no duplicate ids. The
// content between the pairs is validated separately by
// `go run ./cmd/docgen -check` in CI.
func TestDocgenMarkersBalanced(t *testing.T) {
	for _, file := range markdownFiles(t) {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		open := ""
		seen := map[string]bool{}
		for n, line := range strings.Split(string(body), "\n") {
			kind, id := docgenMarkerLine(line)
			if kind == "" {
				if strings.Contains(line, "docgen:begin") || strings.Contains(line, "docgen:end") {
					// Prose may mention the markers; only flag lines that
					// look like a malformed marker.
					if strings.HasPrefix(strings.TrimSpace(line), "<!--") {
						t.Errorf("%s:%d: malformed docgen marker: %s", file, n+1, line)
					}
				}
				continue
			}
			switch kind {
			case "begin":
				if open != "" {
					t.Errorf("%s:%d: begin %q nested inside open %q", file, n+1, id, open)
					continue
				}
				if seen[id] {
					t.Errorf("%s:%d: duplicate docgen section %q", file, n+1, id)
				}
				seen[id] = true
				open = id
			case "end":
				if open == "" {
					t.Errorf("%s:%d: end %q without a begin", file, n+1, id)
				} else if open != id {
					t.Errorf("%s:%d: end %q closes open begin %q", file, n+1, id, open)
				}
				open = ""
			}
		}
		if open != "" {
			t.Errorf("%s: begin %q never closed", file, open)
		}
	}
}

// checkAnchor verifies a GitHub-style heading anchor exists in target.
func checkAnchor(t *testing.T, from, target, fragment string) {
	t.Helper()
	body, err := os.ReadFile(target)
	if err != nil {
		t.Errorf("%s: cannot read %s for anchor #%s: %v", from, target, fragment, err)
		return
	}
	inFence := false
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "```") {
			inFence = !inFence
			continue
		}
		// Shell comments inside fenced code blocks are not headings.
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		heading := strings.TrimSpace(strings.TrimLeft(line, "#"))
		if githubAnchor(heading) == fragment {
			return
		}
	}
	t.Errorf("%s: link to %s#%s matches no heading", from, target, fragment)
}

// githubAnchor lowercases, strips non-alphanumerics (except hyphens and
// spaces) and replaces spaces with hyphens — GitHub's anchor algorithm
// for ASCII headings.
func githubAnchor(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}
