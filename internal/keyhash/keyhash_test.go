package keyhash

import (
	"hash/fnv"
	"testing"
	"testing/quick"
)

// TestRouteIsFNV1a32 pins the low half to hash/fnv's FNV-1a-32, the
// placement every store directory was written under.
func TestRouteIsFNV1a32(t *testing.T) {
	f := func(key string) bool {
		ref := fnv.New32a()
		ref.Write([]byte(key))
		return Route(String(key)) == ref.Sum32() && Bytes([]byte(key)) == String(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
