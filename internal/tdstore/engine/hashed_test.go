package engine_test

import (
	"fmt"
	"testing"

	"tencentrec/internal/keyhash"
	"tencentrec/internal/tdstore/engine"
)

// TestHashedAndKeyedPathsAgree: on every engine of the conformance suite,
// what the keyed methods write the hashed ones read back, and the reverse,
// through single puts and batches.
func TestHashedAndKeyedPathsAgree(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			defer e.Close()
			var kvs []engine.KV
			var hs []uint64
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("k%d", i)
				switch i % 3 {
				case 0:
					if err := e.PutKV(engine.MakeKV(k, []byte(k))); err != nil {
						t.Fatal(err)
					}
				case 1:
					if err := e.PutHashed(engine.MakeKV(k, []byte(k)), keyhash.String(k)); err != nil {
						t.Fatal(err)
					}
				default:
					kvs, hs = append(kvs, engine.MakeKV(k, []byte(k))), append(hs, keyhash.String(k))
				}
			}
			if err := e.PutBatchHashed(kvs, hs); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("k%d", i)
				v1, ok1, err1 := e.Get(k)
				v2, ok2, err2 := e.GetHashed(k, keyhash.String(k))
				if err1 != nil || err2 != nil || !ok1 || !ok2 || string(v1) != k || string(v2) != k {
					t.Fatalf("%s: Get = %q %v %v, GetHashed = %q %v %v", k, v1, ok1, err1, v2, ok2, err2)
				}
			}
		})
	}
}
