package main

import (
	"bufio"
	"bytes"
	"flag"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestStackParity builds cacheserve, reads the defaults its -h prints and
// fails when any flag the benchmark's stack mirrors (serveFlags) is
// missing from cacheserve or has drifted from its default.
func TestStackParity(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "cacheserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/cacheserve").CombinedOutput(); err != nil {
		t.Fatalf("building cacheserve: %v\n%s", err, out)
	}
	help, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 0 or 2 by Go version
	defaults, err := parseDefaults(help)
	if err != nil {
		t.Fatal(err)
	}
	if len(defaults) < 10 {
		t.Fatalf("parsed only %d flags from cacheserve -h:\n%s", len(defaults), help)
	}
	serveFlags().VisitAll(func(f *flag.Flag) {
		want, ok := defaults[f.Name]
		switch {
		case !ok:
			t.Errorf("cacheserve has no -%s flag", f.Name)
		case want == nil && !isZero(f.DefValue):
			t.Errorf("-%s: cacheserve defaults to the zero value, the benchmark to %q", f.Name, f.DefValue)
		case want != nil && *want != f.DefValue:
			t.Errorf("-%s: cacheserve defaults to %q, the benchmark to %q", f.Name, *want, f.DefValue)
		}
	})
}

var defaultRE = regexp.MustCompile(`\(default (.*)\)$`)

// parseDefaults reads the flag package's usage listing: "  -name type"
// lines, each followed by its indented usage text, which ends in
// "(default v)" unless the default is the type's zero value (nil here).
func parseDefaults(usage []byte) (map[string]*string, error) {
	out := make(map[string]*string)
	var name string
	var text strings.Builder
	flush := func() error {
		if name == "" {
			return nil
		}
		var def *string
		if m := defaultRE.FindStringSubmatch(strings.TrimSpace(text.String())); m != nil {
			v := m[1]
			if strings.HasPrefix(v, `"`) {
				u, err := strconv.Unquote(v)
				if err != nil {
					return err
				}
				v = u
			}
			def = &v
		}
		out[name] = def
		name = ""
		text.Reset()
		return nil
	}
	sc := bufio.NewScanner(bytes.NewReader(usage))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "  -"):
			if err := flush(); err != nil {
				return nil, err
			}
			name = strings.Fields(line)[0][1:]
		case name != "" && strings.HasPrefix(line, "    \t"):
			text.WriteString(strings.TrimPrefix(line, "    \t"))
			text.WriteByte(' ')
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, sc.Err()
}

func isZero(v string) bool { return v == "" || v == "0" || v == "false" || v == "0s" }
