package main

import (
	"os"
	"strings"
	"testing"

	"github.com/jockeysim/jockey/internal/experiments"
)

// TestUsageListsRegistry keeps the usage comment's -run list in step with
// the artifact registry the command runs.
func TestUsageListsRegistry(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	want := "\n// " + strings.Join(experiments.RunNames(), ",") + "\n"
	if !strings.Contains(string(src), want) {
		t.Errorf("usage comment does not list the registry's -run names; want the line%s", want)
	}
}
