package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// expectedJSON pins the paper-facing tallies of the script: the one-shot
// error counts and the round-1 / round-2 corrected counts fisql-eval prints
// for FISQL with routing and highlights (EXPERIMENTS.md §4.1, Table 3,
// Figure 8). paper_loop refuses to report a result that disagrees.
//
//go:embed expected.json
var expectedJSON []byte

func loadExpected() (map[string]tally, error) {
	var out map[string]tally
	if err := json.Unmarshal(expectedJSON, &out); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return out, nil
}
