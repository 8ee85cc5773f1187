package kvstore

import (
	"bytes"
	"strings"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	cases := []struct {
		key   string
		value []byte
	}{
		{"", nil},
		{"", []byte{}},
		{"user000000000001", []byte("payload")},
		{"k", bytes.Repeat([]byte{0xff}, 1000)},
		{strings.Repeat("K", 300), []byte("v")}, // key length needs 2 varint bytes
		{"tomb", nil},
		{"\x00\xff\xfe", []byte("\x00")},
	}
	var buf []byte
	for _, c := range cases {
		buf = EncodeRecord(buf, c.key, c.value)
	}
	rest := buf
	for i, c := range cases {
		key, value, r, err := DecodeRecord(rest)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if key != c.key {
			t.Fatalf("case %d: key %q != %q", i, key, c.key)
		}
		if (value == nil) != (c.value == nil) || !bytes.Equal(value, c.value) {
			t.Fatalf("case %d: value %v != %v", i, value, c.value)
		}
		consumed := len(rest) - len(r)
		vlen := len(c.value)
		if c.value == nil {
			vlen = -1
		}
		if int64(consumed) != EncodedRecordSize(len(c.key), vlen) {
			t.Fatalf("case %d: consumed %d, EncodedRecordSize says %d",
				i, consumed, EncodedRecordSize(len(c.key), vlen))
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
}

func TestDecodeRecordCorrupt(t *testing.T) {
	for _, buf := range [][]byte{
		nil,
		{},
		{0x05},                 // key length but no key
		{0x05, 'a', 'b'},       // truncated key
		{0x01, 'k'},            // missing value prefix
		{0x01, 'k', 0x09, 'v'}, // truncated value
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // huge length
		{0x80}, // unterminated varint
	} {
		if _, _, _, err := DecodeRecord(buf); err == nil {
			t.Fatalf("DecodeRecord(%v) accepted corrupt input", buf)
		}
	}
}

func TestEncodedRecordSizeMatchesEncoding(t *testing.T) {
	for _, c := range []struct {
		keyLen, valueLen int
	}{
		{0, -1}, {0, 0}, {1, 1}, {16, 100}, {127, 126}, {128, 127},
		{300, 16383}, {5, 16384}, {1000, 1 << 20},
	} {
		key := strings.Repeat("k", c.keyLen)
		var value []byte
		if c.valueLen >= 0 {
			value = bytes.Repeat([]byte{'v'}, c.valueLen)
		}
		got := int64(len(EncodeRecord(nil, key, value)))
		if want := EncodedRecordSize(c.keyLen, c.valueLen); got != want {
			t.Fatalf("keyLen=%d valueLen=%d: encoded %d bytes, size fn says %d",
				c.keyLen, c.valueLen, got, want)
		}
	}
}
