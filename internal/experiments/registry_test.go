package experiments

import (
	"slices"
	"strings"
	"testing"
)

func TestSelect(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range RunNames() {
		if seen[n] {
			t.Errorf("-run name %q selects two artifacts", n)
		}
		seen[n] = true
	}
	names := func(as []Artifact) string {
		var out []string
		for _, a := range as {
			out = append(out, a.Names[0])
		}
		return strings.Join(out, ",")
	}
	for _, c := range []struct{ list, want string }{
		{"", strings.Join(slices.DeleteFunc(RunNames(), func(n string) bool { return n == "fig5" }), ",")},
		{"fig8,table1", "table1,fig8"}, // run order, not list order
		{"fig5", "fig4"},               // fig4 and fig5 are one artifact
		{"fig4,fig5,FIG4", "fig4"},
		{" Table3 , EXT2", "table3,ext2"},
	} {
		got, err := Select(c.list)
		if err != nil {
			t.Errorf("Select(%q): %v", c.list, err)
			continue
		}
		if names(got) != c.want {
			t.Errorf("Select(%q) = %s, want %s", c.list, names(got), c.want)
		}
	}
	for _, list := range []string{"fig99", "table1,fig99", "table1,", "fig45"} {
		_, err := Select(list)
		if err == nil {
			t.Errorf("Select(%q) accepted an unknown name", list)
		} else if !strings.Contains(err.Error(), strings.Join(RunNames(), ",")) {
			t.Errorf("Select(%q) error does not list the valid names: %v", list, err)
		}
	}
}
