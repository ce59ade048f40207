package sizeparse

import "testing"

func TestParse(t *testing.T) {
	good := map[string]int{
		"0":      0,
		"4096":   4096,
		"1B":     1,
		"100KB":  100 << 10,
		"100KiB": 100 << 10,
		"64K":    64 << 10,
		"1MiB":   1 << 20,
		"256MB":  256 << 20,
		"8M":     8 << 20,
		"2GiB":   2 << 30,
		"1G":     1 << 30,
		" 7MiB ": 7 << 20,
		"12 MiB": 12 << 20,
		// Suffixes fold case: command-line flags (-capacity,
		// -maxsegment, cploadgen -ws) accept what humans type.
		"64kib":  64 << 10,
		"64kb":   64 << 10,
		"64k":    64 << 10,
		"16mib":  16 << 20,
		"1gb":    1 << 30,
		"2g":     2 << 30,
		"16MIB":  16 << 20,
		"512b":   512,
		"3 gib ": 3 << 30,
	}
	for in, want := range good {
		got, err := Parse(in)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	bad := []string{"", "abc", "-1", "-5MB", "1.5MB", "MB", "10TB10", "64 k b", "kib", "12x"}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded", in)
		}
	}
}

func TestFormat(t *testing.T) {
	cases := map[int]string{
		512:       "512B",
		100 << 10: "100KB",
		1 << 20:   "1MB",
		128 << 20: "128MB",
		4 << 30:   "4GB",
		1500:      "1500B",
	}
	for in, want := range cases {
		if got := Format(in); got != want {
			t.Errorf("Format(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestFormatRoundTrip: every exact multiple of each unit parses back to
// the count it was formatted from.
func TestFormatRoundTrip(t *testing.T) {
	for _, unit := range []int{1, 1 << 10, 1 << 20, 1 << 30} {
		for m := 0; m <= 2048; m++ {
			n := m * unit
			if got, err := Parse(Format(n)); err != nil || got != n {
				t.Fatalf("Parse(Format(%d)) = %d, %v (formatted %q)", n, got, err, Format(n))
			}
		}
	}
}

func TestParseOverflow(t *testing.T) {
	if _, err := Parse("9999999999999G"); err == nil {
		t.Fatal("overflow accepted")
	}
}
