package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestPolicyFlagConflicts pins that -guard and -online, the spellings of
// the jockey-guarded and jockey-online policies, are rejected together and
// beside any -policy but jockey, with an error naming the flags, before
// any model is built.
func TestPolicyFlagConflicts(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string // substrings of the error
	}{
		{[]string{"-guard", "-online"}, []string{"-guard", "-online"}},
		{[]string{"-guard", "-policy", "max-allocation"}, []string{"-guard", "-policy", `"max-allocation"`}},
		{[]string{"-online", "-policy", "jockey-no-sim"}, []string{"-online", "-policy", `"jockey-no-sim"`}},
		{[]string{"-online", "-policy", "jockey-online"}, []string{"-online", "-policy", `"jockey-online"`}},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append([]string{"-job", "B"}, c.args...), &stdout, &stderr)
		if err == nil {
			t.Errorf("%v: no error", c.args)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%v: error %q does not name %s", c.args, err, w)
			}
		}
		if stdout.Len() > 0 || stderr.Len() > 0 {
			t.Errorf("%v: the run started:\n%s%s", c.args, &stdout, &stderr)
		}
	}
}
