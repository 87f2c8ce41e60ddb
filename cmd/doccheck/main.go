// Command doccheck keeps the documentation from rotting: it verifies
// that every cross-reference in the repository's markdown files resolves
// to a file that exists, and that every command-line flag named in the
// operations runbook is a flag the binaries actually accept. make test
// runs it, so a renamed document or a dropped flag fails the build
// instead of leaving a dangling reference for an operator to trip over.
//
// Usage:
//
//	doccheck -root . [-ops OPERATIONS.md] [-protocol PROTOCOL.md] [helpfile ...]
//
// Five checks run:
//
//   - Link check: every inline markdown link pointing at a local path,
//     and every FILE.md mention in prose, must name a file that exists
//     (relative to the referencing document, or to the root).
//   - Flag check: every `-flag` span in -ops must appear in one of the
//     helpfile arguments — each a captured `-help` output of a shipped
//     binary (the Makefile builds them and snapshots their help) — and
//     each engine flag (a core.Knobs row served by lsmserver) must have a
//     row of its own in -ops whose Default cell is the knob's default, or
//     the default -help prints where lsmserver overrides the library's.
//   - Protocol check: the opcode table in -protocol must agree with the
//     server's own opcode table (server.Opcodes, imported — not parsed out
//     of Go source) on every number, name, class and reserved mark, in
//     both directions — a new opcode without documentation, a documented
//     opcode that was removed, a renumbering or a reclassification on
//     either side fails the build. A retired opcode keeps its row in both
//     tables; the document's says "reserved".
//   - Knob check: TUNING.md's knob reference must hold exactly one row
//     per row of core.Knobs (imported), rendered from it: name, field,
//     axis, default, legal range, live and tuner bounds, flag.
//   - Experiment check: the index rows of DESIGN.md, the `## En` headings
//     of EXPERIMENTS.md and its summary rows must each name exactly the
//     experiments internal/bench registers, once each — an experiment
//     added without its documentation, or documented after it is gone,
//     fails the build.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"

	"lsmkv/internal/bench"
	"lsmkv/internal/core"
	"lsmkv/internal/server"
)

var (
	// inlineLink matches [text](target); target is captured.
	inlineLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	// mdMention matches FILE.md-style references in prose or backticks.
	mdMention = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)
	// codeSpan matches one `...` span within a line; fenced code blocks
	// are stripped before matching so their odd backtick counts cannot
	// shift span boundaries.
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	// helpFlag matches a flag definition line in `flag` package -help
	// output: two leading spaces, then -name.
	helpFlag = regexp.MustCompile(`(?m)^\s+-([A-Za-z0-9][A-Za-z0-9.-]*)`)
	// helpDefault matches a flag whose usage line ends in its default.
	helpDefault = regexp.MustCompile(`(?m)^  -([A-Za-z0-9.-]+)[^\n]*\n    \t[^\n]*\(default ([^)\n]*)\)$`)
	// docOpcode matches one row of the PROTOCOL.md opcode table: the row
	// leads with the numeric value, then the Go constant name in a code
	// span, then the class (`| 3 | ` + "`OpPut`" + ` | write | ...`); the
	// rest of the row is captured.
	docOpcode = regexp.MustCompile("(?m)^\\|\\s*(\\d+)\\s*\\|\\s*`(Op[A-Za-z]+)`\\s*\\|\\s*([a-z—]+)\\s*\\|(.*)$")
	// experimentRow matches a table row that leads with an experiment ID
	// (`| E7 | ...`); experimentHeading a `## E7 — ...` section heading.
	experimentRow     = regexp.MustCompile(`(?m)^\|\s*(E\d+)\s*\|`)
	experimentHeading = regexp.MustCompile(`(?m)^## (E\d+)\b`)
)

func main() {
	root := flag.String("root", ".", "repository root to scan for *.md files")
	ops := flag.String("ops", "", "runbook whose `-flag` mentions must exist in the helpfile args")
	protocol := flag.String("protocol", "", "wire reference whose opcode table must match the server's")
	flag.Parse()

	var problems []string
	complain := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	checkLinks(*root, complain)
	checkExperiments(*root, complain)
	checkKnobs(*root, complain)
	if *ops != "" {
		checkFlags(*ops, flag.Args(), complain)
	}
	if *protocol != "" {
		checkProtocol(*protocol, complain)
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "doccheck:", p)
		}
		os.Exit(1)
	}
}

// checkLinks walks root for markdown files and verifies every local
// reference in each one.
func checkLinks(root string, complain func(string, ...any)) {
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip VCS internals and scratch dirs.
			switch d.Name() {
			case ".git", "serve-db":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		checkFileRefs(root, path, string(body), complain)
		return nil
	})
	if err != nil {
		complain("walk %s: %v", root, err)
	}
}

// checkFileRefs validates the references of one markdown document.
func checkFileRefs(root, path, body string, complain func(string, ...any)) {
	resolves := func(target string) bool {
		// Relative to the referencing document first, then to the root
		// (prose mentions like "see TUNING.md" are root-relative by
		// convention).
		for _, base := range []string{filepath.Dir(path), root} {
			if _, err := os.Stat(filepath.Join(base, target)); err == nil {
				return true
			}
		}
		return false
	}

	for _, m := range inlineLink.FindAllStringSubmatch(body, -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
			continue
		}
		if u, err := url.Parse(target); err == nil {
			target = u.Path // strip #anchor and ?query
		}
		if target == "" {
			continue
		}
		if !resolves(target) {
			complain("%s: broken link (%s)", path, m[1])
		}
	}
	for _, target := range mdMention.FindAllString(body, -1) {
		if !resolves(target) {
			complain("%s: reference to missing document %s", path, target)
		}
	}
}

// stripFences removes ``` fenced code blocks (example transcripts quote
// flags of commands we don't ship, and fence backticks would desync the
// span matcher).
func stripFences(body string) string {
	var out []string
	inFence := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// checkProtocol verifies that the wire reference's opcode table and the
// server's are the same rows: number, name, class, reserved mark.
func checkProtocol(docPath string, complain func(string, ...any)) {
	doc, err := os.ReadFile(docPath)
	if err != nil {
		complain("read %s: %v", docPath, err)
		return
	}
	// A row's documented form: the Go constant's name is "Op" plus the
	// row's name up to case, and a reserved row has no class.
	type docRow struct {
		name, class string
		reserved    bool
	}
	documented := map[string]docRow{} // number -> row
	for _, m := range docOpcode.FindAllStringSubmatch(string(doc), -1) {
		if prev, dup := documented[m[1]]; dup {
			complain("%s: opcode %s documented twice (as %s and %s)", docPath, m[1], prev.name, m[2])
		}
		documented[m[1]] = docRow{name: m[2], class: m[3], reserved: strings.Contains(m[4], "reserved")}
	}
	if len(documented) == 0 {
		complain("%s: no opcode table rows found (want `| N | OpName | class | ...`)", docPath)
		return
	}
	for _, op := range server.Opcodes() {
		num, class, reserved := fmt.Sprint(uint8(op)), op.Class().String(), op.Class() == 0
		if reserved {
			class = "—"
		}
		row, ok := documented[num]
		delete(documented, num)
		switch {
		case !ok:
			complain("%s: opcode %d (%v) is not documented", docPath, op, op)
		case !strings.EqualFold(row.name, "Op"+op.String()):
			complain("%s: opcode %d documented as %s but the server calls it %q", docPath, op, row.name, op)
		case row.class != class:
			complain("%s: opcode %s documented as class %q but the server has %q", docPath, row.name, row.class, class)
		case row.reserved != reserved:
			complain("%s: opcode %s reserved=%v in the document but reserved=%v in the server", docPath, row.name, row.reserved, reserved)
		}
	}
	for num, row := range documented {
		complain("%s: documents opcode %s = %s which the server does not have", docPath, row.name, num)
	}
}

// checkExperiments verifies that each place the documentation lists the
// experiments lists the registry's IDs, all of them and nothing else.
func checkExperiments(root string, complain func(string, ...any)) {
	for _, list := range []struct {
		file, what string
		id         *regexp.Regexp
	}{
		{"DESIGN.md", "experiment index row", experimentRow},
		{"EXPERIMENTS.md", "section heading", experimentHeading},
		{"EXPERIMENTS.md", "summary row", experimentRow},
	} {
		path := filepath.Join(root, list.file)
		body, err := os.ReadFile(path)
		if err != nil {
			complain("read %s: %v", path, err)
			continue
		}
		listed := map[string]int{}
		for _, m := range list.id.FindAllStringSubmatch(string(body), -1) {
			listed[m[1]]++
		}
		for _, e := range bench.Registry() {
			if n := listed[e.ID]; n != 1 {
				complain("%s: %d %ss for %s, which internal/bench registers; want 1", path, n, list.what, e.ID)
			}
			delete(listed, e.ID)
		}
		for id := range listed {
			complain("%s: %s for %s, which internal/bench does not register", path, list.what, id)
		}
	}
}

// checkFlags verifies that every `-flag` code span in the runbook names
// a flag some shipped binary's -help output defines.
func checkFlags(opsPath string, helpFiles []string, complain func(string, ...any)) {
	// The flag package answers -h/-help without listing them.
	known := map[string]bool{"h": true, "help": true}
	defaults := map[string]string{}
	for _, hf := range helpFiles {
		body, err := os.ReadFile(hf)
		if err != nil {
			complain("read help file: %v", err)
			return
		}
		for _, m := range helpFlag.FindAllStringSubmatch(string(body), -1) {
			known[m[1]] = true
		}
		for _, m := range helpDefault.FindAllStringSubmatch(string(body), -1) {
			defaults[m[1]] = strings.Replace(m[2], "true", "on", 1)
		}
	}
	if len(known) == 0 {
		complain("no flags parsed from help files %v", helpFiles)
		return
	}

	body, err := os.ReadFile(opsPath)
	if err != nil {
		complain("read %s: %v", opsPath, err)
		return
	}
	for _, m := range codeSpan.FindAllStringSubmatch(stripFences(string(body)), -1) {
		span := strings.TrimSpace(m[1])
		if !strings.HasPrefix(span, "-") {
			continue
		}
		// A span may carry an example value ("-db /path"); the flag is
		// the first token. Spans like "-crash.iters=100" split at "=".
		name := strings.TrimPrefix(strings.Fields(span)[0], "-")
		name = strings.SplitN(name, "=", 2)[0]
		if name == "" {
			continue
		}
		if !known[name] {
			complain("%s: flag `-%s` not in any binary's -help output", opsPath, name)
		}
	}
	for i := range core.Knobs {
		k := &core.Knobs[i]
		if !k.Flag {
			continue
		}
		want, ok := defaults[k.Name]
		if !ok {
			want = knobDefault(k)
		}
		row := regexp.MustCompile("(?m)^\\| `-" + regexp.QuoteMeta(k.Name) + "` \\| *([^|]*?) *\\|").FindStringSubmatch(string(body))
		if row == nil || row[1] != want && !strings.HasPrefix(row[1], want+" ") {
			complain("%s: engine flag `-%s` needs a row of its own with Default %q", opsPath, k.Name, want)
		}
	}
}

// checkKnobs holds TUNING.md's knob reference to core.Knobs, both ways:
// each knob's row as rendered from the table, and no other row.
func checkKnobs(root string, complain func(string, ...any)) {
	path := filepath.Join(root, "TUNING.md")
	body, err := os.ReadFile(path)
	if err != nil {
		complain("read %s: %v", path, err)
		return
	}
	_, section, _ := strings.Cut(string(body), "\n## Knob reference")
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		documented[line] = strings.HasPrefix(line, "| `")
	}
	for i := range core.Knobs {
		k := &core.Knobs[i]
		live, flag := "", ""
		if k.Live != nil {
			live = "yes"
		}
		if k.Tune != [2]float64{} {
			live += ", tuner " + k.Format(k.Tune[0]) + ".." + k.Format(k.Tune[1])
		}
		if k.Flag {
			flag = "`-" + k.Name + "`"
		}
		row := fmt.Sprintf("| `%s` | `%s` | %s | %s | %s | %s | %s |", k.Name, fieldName(k), k.Axis, knobDefault(k), k.Range(), live, flag)
		if !documented[row] {
			complain("%s: knob %s has no knob-reference row %s", path, k.Name, row)
		}
		delete(documented, row)
	}
	for row, isRow := range documented {
		if isRow {
			complain("%s: knob-reference row %s is not a row of core.Knobs", path, row)
		}
	}
}

// fieldName is the Go name of k's field in core.Options.
func fieldName(k *core.Knob) string {
	var o core.Options
	v := reflect.ValueOf(&o).Elem()
	for _, f := range reflect.VisibleFields(v.Type()) {
		if !f.Anonymous && v.FieldByIndex(f.Index).Addr().Interface() == k.Field(&o) {
			return f.Name
		}
	}
	return ""
}

// knobDefault renders a knob's default as the documents spell it.
func knobDefault(k *core.Knob) string {
	if k.Derived != "" {
		return k.Derived
	}
	return k.Format(k.Default)
}
