// Package sizeparse parses human-readable byte sizes ("64MiB", "100KB",
// "4096") for the command-line tools, and formats them back in the
// paper's axis style.
package sizeparse

import (
	"fmt"
	"strconv"
	"strings"
)

// suffixes in match order (longest first so "MiB" wins over "M" and "B").
var suffixes = []struct {
	name string
	mult int
}{
	{"GiB", 1 << 30}, {"GB", 1 << 30},
	{"MiB", 1 << 20}, {"MB", 1 << 20},
	{"KiB", 1 << 10}, {"KB", 1 << 10},
	{"G", 1 << 30}, {"M", 1 << 20}, {"K", 1 << 10},
	{"B", 1},
}

// Parse converts a size string to bytes. Accepted forms: a bare integer
// (bytes) or an integer with one of the suffixes B, K/KB/KiB, M/MB/MiB,
// G/GB/GiB (all binary multiples, as conventional for memory sizes).
// Suffixes match case-insensitively ("64kib", "1gb" and "16MIB" all
// work), since they arrive from command-line flags (-capacity,
// -maxsegment) typed by humans.
func Parse(s string) (int, error) {
	orig := s
	s = strings.TrimSpace(s)
	mult := 1
	for _, suf := range suffixes {
		if hasSuffixFold(s, suf.name) {
			s = s[:len(s)-len(suf.name)]
			mult = suf.mult
			break
		}
	}
	s = strings.TrimSpace(s)
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("sizeparse: bad size %q", orig)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("sizeparse: size %q overflows", orig)
	}
	return n * mult, nil
}

// hasSuffixFold is strings.HasSuffix under ASCII case folding (the
// suffix alphabet is plain ASCII, so EqualFold suffices).
func hasSuffixFold(s, suffix string) bool {
	return len(s) >= len(suffix) && strings.EqualFold(s[len(s)-len(suffix):], suffix)
}

// Format renders a byte count in the paper's axis style (100KB, 1MB…):
// the largest binary unit that divides n exactly, so Parse(Format(n)) == n.
func Format(n int) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
