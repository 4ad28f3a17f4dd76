package main

import (
	"reflect"
	"testing"
)

func TestParseSizes(t *testing.T) {
	for _, c := range []struct {
		in   string
		nb   int
		want []int
		ok   bool
	}{
		{"", 32, nil, true},
		{"126", 32, []int{126}, true},
		{"126, 254,510", 32, []int{126, 254, 510}, true},
		{"0", 32, nil, false},
		{"-5", 32, nil, false},
		{"126,-1", 32, nil, false},
		{"12x", 32, nil, false},
		{"126,", 32, nil, false},
		{" ", 32, nil, false},
		// One blocked iteration needs n ≥ max(nb,2)+2.
		{"1", 32, nil, false},
		{"33", 32, nil, false},
		{"34", 32, []int{34}, true},
		{"126,33", 32, nil, false},
		{"17", 16, nil, false},
		{"18", 16, []int{18}, true},
		{"3", 1, nil, false},
		{"4", 1, []int{4}, true},
		{"33", 0, nil, false},
		{"34", 0, []int{34}, true},
	} {
		got, err := parseSizes(c.in, c.nb)
		if (err == nil) != c.ok || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseSizes(%q, %d) = %v, %v; want %v, ok=%v", c.in, c.nb, got, err, c.want, c.ok)
		}
	}
}
