package main

import "testing"

// TestValidate pins the flag-validation rules: a session count the
// round-robin loop would divide by, or a negative transaction count, is a
// usage error before the engine is built.
func TestValidate(t *testing.T) {
	cases := []struct {
		name           string
		txns, sessions int
		wantErr        bool
	}{
		{"defaults", 100_000, 8, false},
		{"zero transactions", 0, 8, false},
		{"one session", 10, 1, false},
		{"zero sessions", 10, 0, true},
		{"negative sessions", 10, -1, true},
		{"negative transactions", -1, 8, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validate(tc.txns, tc.sessions)
			if (err != nil) != tc.wantErr {
				t.Fatalf("validate(%d, %d) = %v, wantErr %v", tc.txns, tc.sessions, err, tc.wantErr)
			}
		})
	}
}
