package main

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"branchlab/internal/pipeline"
	"branchlab/internal/workload"
)

func TestParseScales(t *testing.T) {
	maxK := pipeline.MaxWidth / pipeline.Skylake().IssueWidth
	for _, c := range []struct {
		in   string
		want []int
	}{{"", nil}, {"0", nil}, {"1, 4,16", []int{1, 4, 16}}, {"80", []int{80}}} {
		if got, err := parseScales(c.in); err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseScales(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := parseScales("1,x"); err == nil {
		t.Error(`parseScales("1,x") accepted`)
	}
	if _, err := parseScales("-2"); err == nil {
		t.Error(`parseScales("-2") accepted`)
	}
	// Past maxK the issue width no longer fits the limiters' counts.
	if _, err := parseScales("4,10923"); !errors.Is(err, pipeline.ErrInvalidConfig) || maxK != 10922 {
		t.Errorf(`parseScales("4,10923") = %v, want ErrInvalidConfig (max scale %d)`, err, maxK)
	}
}

// An -input the workload does not have fails typed, naming the valid
// range, on both the streaming and the cached (multi-scale) paths —
// never a panic.
func TestRunInputOutOfRange(t *testing.T) {
	for _, input := range []int{99, -1} {
		for _, scales := range [][]int{nil, {1, 2}} {
			err := run(context.Background(), "605.mcf_s", input, "", "tage-sc-l-8", 1000, 500, scales, 1, 1)
			if !errors.Is(err, workload.ErrInputRange) {
				t.Errorf("run(-input %d, -pipeline %v) = %v, want ErrInputRange", input, scales, err)
			}
		}
	}
}
