package dsl_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dsl"
)

// sameTree reports whether two trees agree on every field, constants to
// the bit (Float64bits, so -0 and NaN payloads count), and returns the
// first differing subtree's key when they do not.
func sameTree(a, b *dsl.Node) (bool, string) {
	if a.Op != b.Op || a.Sig != b.Sig || a.Mac != b.Mac || a.Bound != b.Bound ||
		math.Float64bits(a.Value) != math.Float64bits(b.Value) || len(a.Kids) != len(b.Kids) {
		return false, a.Key()
	}
	for i := range a.Kids {
		if ok, at := sameTree(a.Kids[i], b.Kids[i]); !ok {
			return false, at
		}
	}
	return true, ""
}

// corpusSketches returns the first n sketches of every bucket of the DSL's
// corpus at its default bounds (n = 0: up to the bucket cap).
func corpusSketches(tb testing.TB, d *dsl.DSL, n int) []*dsl.Node {
	tb.Helper()
	c, err := corpus.New(corpus.Options{DSL: d})
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	if n == 0 {
		c.Prewarm(context.Background(), 2)
	}
	var out []*dsl.Node
	for _, ops := range c.Buckets() {
		take := n
		if take == 0 {
			take = 1 << 30
		}
		sks, _ := c.Take(ops, take, 0, 0)
		out = append(out, sks...)
	}
	return out
}

// TestParseKeyRestoresCorpusSketches pins ParseKey as the exact inverse of
// Key over the sketch spaces snapshots store: every sketch of the reno
// corpus at the default cap and the first 200 of every cubic bucket parse
// back to the identical tree, whose keys — recomputed from scratch on a
// clone, and memoized on every subtree — spell the input.
func TestParseKeyRestoresCorpusSketches(t *testing.T) {
	reno := corpusSketches(t, dsl.Reno(), 0)
	cubic := corpusSketches(t, dsl.Cubic(), 200)
	if len(reno) < 30000 || len(cubic) < 10000 {
		t.Fatalf("corpora too small to mean anything: %d reno, %d cubic sketches", len(reno), len(cubic))
	}
	for _, sk := range append(reno, cubic...) {
		key := sk.Key()
		got, err := dsl.ParseKey(key)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", key, err)
		}
		if ok, at := sameTree(got, sk); !ok {
			t.Fatalf("ParseKey(%q) differs from the original at %s", key, at)
		}
		if got.Key() != key || got.Clone().Key() != key {
			t.Fatalf("ParseKey(%q) keys as %q / %q", key, got.Key(), got.Clone().Key())
		}
		got.Walk(func(m *dsl.Node) {
			if m.Key() != m.Clone().Key() {
				t.Fatalf("subtree of %q memoized %q, recomputes %q", key, m.Key(), m.Clone().Key())
			}
		})
	}
}

// malformedKeys are keys no Node could have produced.
var malformedKeys = []string{
	"",
	"(",
	"(+ w c",
	"(+ w c))",
	"(+ w)",
	"(+ w c c)",
	"(+  c)",
	"(+ w )",
	"(^ w c)",
	"(signal w c)",
	"()",
	"( w c)",
	"x",
	"ww",
	"s",
	"s01",
	"s+1",
	"s99",
	"m-1",
	"k",
	"k1.0",
	"kInf",
	"k1e400",
	"k0x1p-2",
	"(cube w c)",
	"(?: (< w c) w)",
	"w\n",
	"w c",
}

// TestParseKeyRejectsMalformed pins that ParseKey fails closed instead of
// building a tree whose key would not spell its input.
func TestParseKeyRejectsMalformed(t *testing.T) {
	for _, s := range malformedKeys {
		if n, err := dsl.ParseKey(s); err == nil {
			t.Errorf("ParseKey(%q) accepted, built %q", s, n.Key())
		}
	}
	for _, s := range []string{"w", "c", "s0", "m3", "k0.5", "k-0", "k1e+06", "kNaN", "k+Inf",
		"(cube (cbrt s8))", "(?: (%= w k2) (- w c) (/ s1 m0))", "(> (* c s2) (+ w c))"} {
		n, err := dsl.ParseKey(s)
		if err != nil {
			t.Errorf("ParseKey(%q): %v", s, err)
		} else if n.Clone().Key() != s {
			t.Errorf("ParseKey(%q) keys as %q", s, n.Clone().Key())
		}
	}
}

// FuzzParseKey feeds arbitrary strings to ParseKey: it must never panic,
// and anything it accepts must key back to its input, both through the
// memoized key and recomputed from scratch.
func FuzzParseKey(f *testing.F) {
	c, err := corpus.New(corpus.Options{DSL: dsl.Reno(), BucketCap: 8, ScanBudget: 5000})
	if err != nil {
		f.Fatal(err)
	}
	c.Prewarm(context.Background(), 2)
	for _, ops := range c.Buckets() {
		sks, _ := c.Take(ops, 8, 0, 0)
		for _, sk := range sks {
			f.Add(sk.Key())
		}
	}
	c.Close()
	for _, s := range malformedKeys {
		f.Add(s)
	}
	f.Add("(+ w k1e+06)")
	f.Add(strings.Repeat("(cube ", 40) + "w" + strings.Repeat(")", 40))
	f.Fuzz(func(t *testing.T, s string) {
		n, err := dsl.ParseKey(s)
		if err != nil {
			return
		}
		if n.Key() != s {
			t.Fatalf("ParseKey(%q) memoized key %q", s, n.Key())
		}
		if re := n.Clone().Key(); re != s {
			t.Fatalf("ParseKey(%q) recomputes key %q", s, re)
		}
	})
}
