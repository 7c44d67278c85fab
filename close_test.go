package tencentrec

import (
	"errors"
	"testing"

	"tencentrec/internal/tdstore/engine"
)

// TestAddItemAfterCloseIsAnError: a write that reaches a closed system's
// store is an error on every engine, not a panic.
func TestAddItemAfterCloseIsAnError(t *testing.T) {
	for _, eng := range []string{"mdb", "ldb"} {
		t.Run(eng, func(t *testing.T) {
			s, err := Open(SystemConfig{DataDir: t.TempDir(), StoreEngine: eng})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.AddItem("item", []string{"term"}, t0); !errors.Is(err, engine.ErrClosed) {
				t.Fatalf("AddItem after Close = %v, want ErrClosed", err)
			}
		})
	}
}
