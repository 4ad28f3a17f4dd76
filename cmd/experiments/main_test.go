package main

import (
	"reflect"
	"testing"
)

func TestParseSizes(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []int
		ok   bool
	}{
		{"", nil, true},
		{"126", []int{126}, true},
		{"126, 254,510", []int{126, 254, 510}, true},
		{"0", nil, false},
		{"-5", nil, false},
		{"126,-1", nil, false},
		{"12x", nil, false},
		{"126,", nil, false},
		{" ", nil, false},
	} {
		got, err := parseSizes(c.in)
		if (err == nil) != c.ok || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseSizes(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}
