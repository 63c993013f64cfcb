// Command dupcheck is the session-extraction duplication gate: it hashes
// sliding windows of normalized source lines across the fabric packages
// and fails when the same >40-line block appears in two different
// non-test files. The extraction's whole point is that the transport
// bindings share the engine instead of carrying private copies of it;
// this gate keeps copy-paste from growing back. It also fails when a
// non-test Go file under the working directory, outside internal/stack
// and the binding packages, calls tcp., core. or rdma. NewServer/Connect:
// topologies build their stacks through internal/stack only. And it fails
// when a non-test Go file of the module (nested modules excluded)
// declares a Submit or SubmitBatch method over transport.IO: every queue
// submits through SubmitInto + RingDoorbell, with transport.Submit and
// transport.SubmitBatch as the only helpers.
//
// Usage (from the module root):
//
//	go run ./cmd/dupcheck [-window N] [dirs...]
//
// Defaults to -window 41 (i.e. flag clones longer than 40 lines) over
// internal/core, internal/tcp, internal/rdma, internal/session. Also
// prints a per-file LoC table so refactors can report net line deltas.
// Exit status 1 when any cross-file clone, direct binding construction
// or queue-level Submit/SubmitBatch method is found.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

type site struct {
	file string
	line int // 1-based line of the window start
}

func main() {
	window := flag.Int("window", 41, "minimum clone length in normalized lines")
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = []string{"internal/core", "internal/tcp", "internal/rdma", "internal/session"}
	}

	type source struct {
		path  string
		norm  []string // normalized significant lines
		lines []int    // original line number per normalized line
	}
	var files []source
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dupcheck: %v\n", err)
			os.Exit(2)
		}
		for _, ent := range entries {
			name := ent.Name()
			if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			raw, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dupcheck: %v\n", err)
				os.Exit(2)
			}
			src := source{path: path}
			for i, line := range strings.Split(string(raw), "\n") {
				n := normalize(line)
				if n == "" {
					continue
				}
				src.norm = append(src.norm, n)
				src.lines = append(src.lines, i+1)
			}
			files = append(files, src)
		}
	}

	// Hash every window; a hash seen from two distinct files is a clone.
	seen := map[uint64]site{}
	clones := map[string]bool{} // dedup report lines
	for _, f := range files {
		for i := 0; i+*window <= len(f.norm); i++ {
			h := fnv.New64a()
			for _, line := range f.norm[i : i+*window] {
				h.Write([]byte(line))
				h.Write([]byte{0})
			}
			sum := h.Sum64()
			if prev, ok := seen[sum]; ok {
				if prev.file != f.path {
					key := fmt.Sprintf("%s:%d <-> %s:%d", prev.file, prev.line, f.path, f.lines[i])
					clones[key] = true
				}
				continue
			}
			seen[sum] = site{file: f.path, line: f.lines[i]}
		}
	}

	// LoC report (significant lines, comments and blanks excluded).
	sort.Slice(files, func(i, j int) bool { return files[i].path < files[j].path })
	total := 0
	fmt.Printf("%-40s %8s\n", "file", "sig-loc")
	for _, f := range files {
		fmt.Printf("%-40s %8d\n", f.path, len(f.norm))
		total += len(f.norm)
	}
	fmt.Printf("%-40s %8d\n", "total", total)

	direct := directBindings(".")
	for _, d := range direct {
		fmt.Fprintf(os.Stderr, "dupcheck: binding built outside internal/stack: %s\n", d)
	}
	submits := submitMethods(".")
	for _, d := range submits {
		fmt.Fprintf(os.Stderr, "dupcheck: Submit/SubmitBatch method beside SubmitInto + RingDoorbell: %s\n", d)
	}
	if len(clones) > 0 {
		keys := make([]string, 0, len(clones))
		for k := range clones {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(os.Stderr, "\ndupcheck: %d cross-file clone window(s) of >=%d lines:\n", len(keys), *window)
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, "  %s\n", k)
		}
	}
	if len(clones)+len(direct)+len(submits) > 0 {
		os.Exit(1)
	}
	fmt.Printf("dupcheck: no cross-file clones of >=%d normalized lines\n", *window)
}

// bindingCall matches a direct construction of a binding server or client.
var bindingCall = regexp.MustCompile(`\b(tcp|core|rdma)\.(NewServer|Connect)\(`)

// directBindings lists every non-test Go line under root, outside the
// stack builder and the binding packages, that matches bindingCall.
func directBindings(root string) []string {
	return grepGo(root, bindingCall, func(dir string) bool {
		switch filepath.ToSlash(dir) {
		case "internal/stack", "internal/core", "internal/tcp", "internal/rdma":
			return true
		}
		return false
	})
}

// submitMethod matches the declaration of a Submit or SubmitBatch method
// taking one transport I/O or a slice of them (spelled *IO inside
// package transport).
var submitMethod = regexp.MustCompile(`^func \([^)]*\) (Submit|SubmitBatch)\([^)]*\*(transport\.)?IO\b`)

// submitMethods lists every non-test Go line of the module rooted at
// root that declares a queue-level Submit or SubmitBatch method. A queue
// has one submission primitive, SubmitInto + RingDoorbell, with
// transport.Submit and transport.SubmitBatch as the helpers over it.
// Nested modules are skipped: they are not this module's code.
func submitMethods(root string) []string {
	return grepGo(root, submitMethod, func(dir string) bool {
		_, err := os.Stat(filepath.Join(dir, "go.mod"))
		return dir != root && err == nil
	})
}

// grepGo lists, as file:line, every line of the non-test Go files under
// root whose normalized text matches re. Hidden directories and those
// skip reports true are not entered.
func grepGo(root string, re *regexp.Regexp, skip func(dir string) bool) []string {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || skip(path)):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, line := range strings.Split(string(raw), "\n") {
				if re.MatchString(normalize(line)) {
					out = append(out, fmt.Sprintf("%s:%d", path, i+1))
				}
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dupcheck: %v\n", err)
		os.Exit(2)
	}
	return out
}

// normalize strips comments and whitespace so a clone is flagged even
// after a reformat or a comment edit. Lines that become empty (pure
// comments, blanks, lone braces) drop out of the stream entirely, which
// also defeats blank-line padding between copied halves.
func normalize(line string) string {
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	line = strings.Join(strings.Fields(line), " ")
	if line == "" || line == "}" || line == "{" || line == ")" {
		return ""
	}
	return line
}
