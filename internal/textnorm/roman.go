package textnorm

import "strings"

// Sequel-number rewriting is one of the highest-volume synonym phenomena in
// the movie domain ("Indiana Jones 4" vs "Indiana Jones IV" vs "Indiana
// Jones and the Kingdom of the Crystal Skull"). The alias generator and the
// fuzzy matcher both need arabic<->roman and arabic<->word conversions for
// small numbers; film sequels realistically stop well below 40.

var romanTable = []struct {
	value int
	sym   string
}{
	{40, "xl"}, {10, "x"}, {9, "ix"}, {5, "v"}, {4, "iv"}, {1, "i"},
}

// ToRoman converts n in [1, 49] to its lower-case roman numeral. It returns
// "" for out-of-range values.
func ToRoman(n int) string {
	if n < 1 || n > 49 {
		return ""
	}
	var b strings.Builder
	for _, e := range romanTable {
		for n >= e.value {
			b.WriteString(e.sym)
			n -= e.value
		}
	}
	return b.String()
}

// FromRoman parses a lower-case roman numeral in [1, 49]. The second result
// reports whether s is a well-formed numeral in range. Parsing is strict:
// "iiii" and "vx" are rejected.
func FromRoman(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	vals := map[byte]int{'i': 1, 'v': 5, 'x': 10, 'l': 50}
	total := 0
	for i := 0; i < len(s); i++ {
		v, ok := vals[s[i]]
		if !ok {
			return 0, false
		}
		if i+1 < len(s) && vals[s[i+1]] > v {
			total -= v
		} else {
			total += v
		}
	}
	if total < 1 || total > 49 {
		return 0, false
	}
	// Strictness: round-trip must reproduce the input.
	if ToRoman(total) != s {
		return 0, false
	}
	return total, true
}

var numberWords = []string{
	1: "one", 2: "two", 3: "three", 4: "four", 5: "five",
	6: "six", 7: "seven", 8: "eight", 9: "nine", 10: "ten",
	11: "eleven", 12: "twelve",
}

// ToWord converts n in [1, 12] to its English word ("two"). Returns "" out
// of range.
func ToWord(n int) string {
	if n < 1 || n >= len(numberWords) {
		return ""
	}
	return numberWords[n]
}

// FromWord parses an English number word in [1, 12].
func FromWord(s string) (int, bool) {
	for n := 1; n < len(numberWords); n++ {
		if numberWords[n] == s {
			return n, true
		}
	}
	return 0, false
}

// NumeralForms returns every surface form of n that users plausibly type:
// digits, roman, word. Forms outside a converter's range are omitted.
func NumeralForms(n int) []string {
	var forms []string
	if n >= 1 {
		forms = append(forms, itoa(n))
	}
	if r := ToRoman(n); r != "" {
		forms = append(forms, r)
	}
	if w := ToWord(n); w != "" {
		forms = append(forms, w)
	}
	return forms
}

// itoa converts a small non-negative int to decimal without strconv.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
