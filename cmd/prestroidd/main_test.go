package main

import (
	"strings"
	"testing"

	"prestroid/internal/serve"
)

// TestBundleFlagsSet pins the -bundle grammar: "name=path" names a serving
// identity, anything else before the first '=' is part of a bare path, and
// a name without a path or an empty value is refused.
func TestBundleFlagsSet(t *testing.T) {
	for _, c := range []struct {
		value string
		want  bundleSpec
		err   string
	}{
		{value: "beta=models/beta.full", want: bundleSpec{name: "beta", path: "models/beta.full"}},
		{value: "model.full", want: bundleSpec{path: "model.full"}},
		{value: "/srv/run=3/model.full", want: bundleSpec{path: "/srv/run=3/model.full"}},
		{value: "beta=", err: "names a model but no path"},
		{value: "", err: "empty -bundle value"},
	} {
		var b bundleFlags
		err := b.Set(c.value)
		switch {
		case c.err != "":
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("Set(%q) = %v, want an error containing %q", c.value, err, c.err)
			}
		case err != nil:
			t.Errorf("Set(%q): %v", c.value, err)
		case len(b.specs) != 1 || b.specs[0] != c.want:
			t.Errorf("Set(%q) parsed %+v, want %+v", c.value, b.specs, c.want)
		}
	}
}

// TestRunRefusals pins the invocations run refuses before it trains or
// serves anything.
func TestRunRefusals(t *testing.T) {
	two := []bundleSpec{{path: "a.full"}, {name: "beta", path: "b.full"}}
	for _, c := range []struct {
		name    string
		train   bool
		paths   bundlePaths
		wantErr string
	}{
		{"-weights without -train", false, bundlePaths{weights: "w.bin"}, "-bundle"},
		{"-weights without -train beside -bundle", false, bundlePaths{weights: "w.bin", bundles: two[:1]}, "-bundle"},
		{"-train with no output", true, bundlePaths{}, "-train requires an output"},
		{"-train with two -bundles", true, bundlePaths{bundles: two}, "at most one -bundle"},
	} {
		err := run("127.0.0.1:0", c.train, c.paths, 10, 0, serve.DefaultConfig(), "", quotaConfig{})
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: run = %v, want an error containing %q", c.name, err, c.wantErr)
		}
	}
}
