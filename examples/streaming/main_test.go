package main

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestNarrative pins what the program's comments promise, mode by mode in
// print order: the proven-local stream and the buffered fallback reproduce
// one-shot evaluation, the forced stream of a non-local splitter does not —
// its scanner bails at the first value and the tail is cut at that value.
func TestNarrative(t *testing.T) {
	var out bytes.Buffer
	report(&out)
	got := regexp.MustCompile(`(?m)^(\d)· .*\n(?:.*\n){2}.*(identical: \w+)$`).FindAllStringSubmatch(out.String(), -1)
	var lines []string
	for _, m := range got {
		lines = append(lines, m[1]+" "+m[2])
	}
	want := []string{"1 identical: true", "3 identical: true", "2 identical: false"}
	if !slices.Equal(lines, want) {
		t.Fatalf("modes report %q, want %q; output:\n%s", lines, want, out.String())
	}
	if bail := "\n  scanner bailed; the tail from byte 4 was split on its own\n"; !strings.Contains(out.String(), bail) {
		t.Fatalf("mode 2 does not report the bail at the first value %q; output:\n%s", bail, out.String())
	}
}
