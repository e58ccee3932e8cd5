package main

import (
	"errors"
	"reflect"
	"testing"

	"branchlab/internal/pipeline"
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
