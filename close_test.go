package tencentrec

import (
	"errors"
	"testing"

	"tencentrec/internal/tdaccess"
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

// TestPublishAfterCloseIsAnError: an action published to a closed system
// (an HTTP POST /action racing shutdown) is an error on every engine, not
// a panic.
func TestPublishAfterCloseIsAnError(t *testing.T) {
	for _, eng := range []string{"mdb", "ldb"} {
		t.Run(eng, func(t *testing.T) {
			s, err := Open(SystemConfig{DataDir: t.TempDir(), StoreEngine: eng})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			a := RawAction{User: "u1", Item: "i1", Action: "click", TS: t0.UnixNano()}
			if err := s.Publish(a); !errors.Is(err, tdaccess.ErrClosed) {
				t.Fatalf("Publish after Close = %v, want tdaccess.ErrClosed", err)
			}
		})
	}
}
