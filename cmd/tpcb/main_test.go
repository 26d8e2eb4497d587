package main

import (
	"strings"
	"testing"
)

// TestValidate pins the flag-validation rules: a session count the
// round-robin loop would divide by, a database without branches or
// accounts, or a negative transaction count, is a usage error naming the
// flag before the engine is built.
func TestValidate(t *testing.T) {
	cases := []struct {
		name                               string
		txns, branches, accounts, sessions int
		wantFlag                           string // "" = valid
	}{
		{"defaults", 100_000, 40, 100_000, 8, ""},
		{"zero transactions", 0, 40, 100_000, 8, ""},
		{"one session", 10, 40, 100_000, 1, ""},
		{"one branch of one account", 10, 1, 1, 8, ""},
		{"zero sessions", 10, 40, 100_000, 0, "-sessions"},
		{"negative sessions", 10, 40, 100_000, -1, "-sessions"},
		{"negative transactions", -1, 40, 100_000, 8, "-txns"},
		{"zero branches", 10, 0, 100_000, 8, "-branches"},
		{"negative branches", 10, -1, 100_000, 8, "-branches"},
		{"zero accounts", 10, 40, 0, 8, "-accounts"},
		{"negative accounts", 10, 40, -1, 8, "-accounts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validate(tc.txns, tc.branches, tc.accounts, tc.sessions)
			if tc.wantFlag == "" {
				if err != nil {
					t.Fatalf("validate refused valid flags: %v", err)
				}
				return
			}
			if err == nil || !strings.HasPrefix(err.Error(), tc.wantFlag+" ") {
				t.Fatalf("validate error %v, want one naming %s", err, tc.wantFlag)
			}
		})
	}
}
