package tdstore

import (
	"bytes"
	"strings"
	"testing"

	"tencentrec/internal/obsv"
)

func TestClientInstrument(t *testing.T) {
	_, cl := newTestCluster(t, Options{})
	r := obsv.NewRegistry()
	cl.Instrument(r)

	if err := cl.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Get("k1"); err != nil {
		t.Fatal(err)
	}
	if err := cl.BatchPut([]string{"a", "b"}, [][]byte{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.BatchGet([]string{"a", "b", "missing"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete("k1"); err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, op := range []string{"get", "put", "delete", "batch_get", "batch_put"} {
		want := `tdstore_op_seconds_count{op="` + op + `"} 1`
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
