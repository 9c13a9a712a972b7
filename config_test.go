package qithread

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"qithread/internal/core"
)

// TestConfigSurface: the exported fields of qithread.Config and core.Config
// are exactly the rows of DESIGN.md §4.11, in order, where each names the
// caller that needs it to vary. A new option is a deliberate edit in two
// places; one whose callers all agree on a value belongs in a constant.
func TestConfigSurface(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string][]string)
	for _, m := range regexp.MustCompile("(?m)^\\| `(qithread|core)\\.Config\\.(\\w+)` \\|").FindAllSubmatch(design, -1) {
		documented[string(m[1])] = append(documented[string(m[1])], string(m[2]))
	}
	for pkg, cfg := range map[string]any{"qithread": Config{}, "core": core.Config{}} {
		var fields []string
		for _, f := range reflect.VisibleFields(reflect.TypeOf(cfg)) {
			if f.IsExported() {
				fields = append(fields, f.Name)
			}
		}
		if !slices.Equal(fields, documented[pkg]) {
			t.Errorf("%s.Config exports %v,\nDESIGN.md §4.11 documents %v", pkg, fields, documented[pkg])
		}
	}
}
