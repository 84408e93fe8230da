package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// forbidden names entry points that open ROADMAP items are set to remove
// or rename: engine-selection knobs and the IR package, the subset-codec
// functions moving into tests, the legacy per-link netrun metrics and the
// causal span API. The benchmark calls none of them, so it runs unedited
// across those changes.
var forbidden = []*regexp.Regexp{
	regexp.MustCompile(`\bDisableIR\b`),
	regexp.MustCompile(`\bDisableLanes\b`),
	regexp.MustCompile(`\bResetProgramCache\b`),
	regexp.MustCompile(`"broadcastic/internal/ir"`),
	regexp.MustCompile(`\bir\.[A-Z]`),
	regexp.MustCompile(`\b(SubsetRank|WriteSubset|ReadSubset)\b`),
	regexp.MustCompile(`netrun\.link\b`),
	regexp.MustCompile(`\bNetrunLink\b`),
	regexp.MustCompile(`"broadcastic/internal/telemetry/causal"`),
	regexp.MustCompile(`\bcausal\.`),
	regexp.MustCompile(`\bSubmitTraced\b`),
}

func TestSourcesAvoidRetiringAPIs(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	scanned := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		scanned++
		for i, line := range strings.Split(string(src), "\n") {
			for _, re := range forbidden {
				if re.MatchString(line) {
					t.Errorf("%s:%d uses %s: %s", f, i+1, re, strings.TrimSpace(line))
				}
			}
		}
	}
	if scanned == 0 {
		t.Fatal("no sources scanned")
	}
}

func TestGuardMatchesRetiringNames(t *testing.T) {
	for _, line := range []string{
		`core.EstimateOptions{DisableIR: true}`,
		`ir.ResetProgramCache()`,
		`encoding.WriteSubset(w, z, set)`,
		`telemetry.Indexed(telemetry.NetrunLink, 0, "wire_bits")`,
		`"netrun.link.0.wire_bits"`,
		`opts.Causal.StartSpan(causal.CoreShard)`,
	} {
		hit := false
		for _, re := range forbidden {
			hit = hit || re.MatchString(line)
		}
		if !hit {
			t.Errorf("guard misses %q", line)
		}
	}
	for _, line := range []string{
		`// Speak is the new-zero scan plus WriteSubsetFast`,
		`core.EstimateCICOpts(spec, prior, src, n, core.EstimateOptions{Workers: 1})`,
		`"netrun.wire_bits"`,
	} {
		for _, re := range forbidden {
			if re.MatchString(line) {
				t.Errorf("guard flags allowed line %q via %s", line, re)
			}
		}
	}
}
