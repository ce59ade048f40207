package mctext

import (
	"testing"
	"time"
)

func TestExptimeToTTL(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	cases := []struct {
		exp  int64
		want uint32
	}{
		{0, 0},
		{-1, 1},
		{1, 1000},
		{thirtyDays, thirtyDays * 1000},
		{now.Unix() + 60, 60_000}, // absolute, 60s out
		{now.Unix() - 60, 1},      // absolute, already past
		{thirtyDays + 1, 1},       // absolute but long past
		{1 << 40, 1<<32 - 1},      // absolute, clamped to max TTL
	}
	for _, tc := range cases {
		if got := exptimeToTTL(tc.exp, now); got != tc.want {
			t.Errorf("exptimeToTTL(%d) = %d, want %d", tc.exp, got, tc.want)
		}
	}
}

func TestSplitFlags(t *testing.T) {
	if f, d := splitFlags([]byte{1, 0, 0, 0, 'x'}); f != 1 || string(d) != "x" {
		t.Fatalf("splitFlags: %d %q", f, d)
	}
	// Short native values read back as flags 0.
	if f, d := splitFlags([]byte("ab")); f != 0 || string(d) != "ab" {
		t.Fatalf("splitFlags short: %d %q", f, d)
	}
}
