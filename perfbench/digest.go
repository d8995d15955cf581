package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"prunesim/internal/sim"
)

// deriveSeed mixes the command-line seed with a per-use label, so each
// workload (and each input within one) draws from its own stream.
func deriveSeed(seed uint64, label string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	z := h.Sum64()
	if z == 0 {
		z = 1 // a zero scenario seed would select the scenario default
	}
	return z
}

// resultDigest fingerprints every field of a trial result: two results have
// the same digest only if they are identical, floats bit for bit.
func resultDigest(r *sim.Result) (string, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// reference holds the per-trial result digests this program produced for
// a set of seeds, by workload name and then seed. Regenerate it with
// --record-reference only when a change is meant to alter results.
type reference map[string]map[string][]string

//go:embed reference.json
var referenceJSON []byte

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// lookup returns the stored digests of one workload and seed, if any.
func (r reference) lookup(workload string, seed uint64) ([]string, bool) {
	d, ok := r[workload][fmt.Sprint(seed)]
	return d, ok
}

// mismatches counts the trials whose digest differs from want; a length
// difference makes every trial of the longer list count.
func mismatches(got, want []string) int {
	if len(got) != len(want) {
		return max(len(got), len(want))
	}
	n := 0
	for i := range got {
		if got[i] != want[i] {
			n++
		}
	}
	return n
}
