package sparse

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestFields3MatchesStringsFields holds the entry loop's in-place split
// to strings.Fields, which it replaced: the same first three fields on
// lines drawn from digits, signs and every kind of space, ASCII or not,
// valid UTF-8 or not.
func TestFields3MatchesStringsFields(t *testing.T) {
	alphabet := []string{"1", "23", "-4.5e3", "%", "x", " ", "  ", "\t", "\v", "\f", "\r",
		"", " ", " ", "　", "é", "\x85", "\xa0", "\xff"}
	rng := rand.New(rand.NewSource(16))
	lines := []string{"", " ", "1 2 3", "1 2 3 4 5", "  7\t8  ", "1 2 3 4", "1 2 3 x", "\xa0"}
	for i := 0; i < 5000; i++ {
		var b strings.Builder
		for k := rng.Intn(9); k > 0; k-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		lines = append(lines, b.String())
	}
	for _, line := range lines {
		want := strings.Fields(line)
		if len(want) > 3 {
			want = want[:3]
		}
		got, n := fields3([]byte(line))
		if n != len(want) {
			t.Fatalf("%q: %d fields, strings.Fields has %d", line, n, len(want))
		}
		for k := range want {
			if string(got[k]) != want[k] {
				t.Fatalf("%q: field %d is %q, strings.Fields has %q", line, k, got[k], want[k])
			}
		}
	}
}

// TestAtoiBytesMatchesAtoi: the digits-only fast path and the fallback
// give strconv.Atoi's value and its verdict.
func TestAtoiBytesMatchesAtoi(t *testing.T) {
	for _, s := range []string{"", "0", "7", "007", "+7", "-7", "123456789012345678", "1234567890123456789",
		"9223372036854775807", "9223372036854775808", "1_0", "0x10", "1.0", "1e3", " 1", "१"} {
		want, wantErr := strconv.Atoi(s)
		got, gotErr := atoiBytes([]byte(s))
		if got != want || (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%q: (%d, %v), strconv.Atoi gives (%d, %v)", s, got, gotErr, want, wantErr)
		}
	}
}

// TestReadMatrixMarketEntryLoopAllocations: reading allocates for the
// scanner and the matrix, not for the lines.
func TestReadMatrixMarketEntryLoopAllocations(t *testing.T) {
	var mm bytes.Buffer
	const n = 2000
	mm.WriteString("%%MatrixMarket matrix coordinate real general\n")
	mm.WriteString(strconv.Itoa(n) + " " + strconv.Itoa(n) + " " + strconv.Itoa(n) + "\n")
	for i := 1; i <= n; i++ {
		mm.WriteString(strconv.Itoa(i) + " " + strconv.Itoa(i) + " 0.8414709848078965\n")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadMatrixMarket(bytes.NewReader(mm.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Errorf("%v allocations to read %d entries, want at most 20", allocs, n)
	}
}
