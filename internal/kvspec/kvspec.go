// Package kvspec is the codec shared by the fault specs of internal/faults
// (the -faults flag) and internal/clusterfaults (-cfaults): a spec is a
// comma-separated list of key=value pairs, an unsigned seed plus named
// float fields, and renders back with its keys in a fixed order, zero
// fields omitted, and "off" when every value is zero. It also derives the
// independent random streams both injectors draw from.
package kvspec

import (
	"fmt"
	"strconv"
	"strings"

	"kelp/internal/sim"
)

// Field is one float-valued key of a spec, bound to the field it sets.
type Field struct {
	Key string
	V   *float64
}

// Format renders seed and fields as key=value pairs in fields' order,
// omitting zero values; a spec with every value zero renders as "off".
func Format(seed uint64, fields []Field) string {
	var parts []string
	if seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", seed))
	}
	for _, f := range fields {
		if *f.V != 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", f.Key, *f.V))
		}
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, ",")
}

// Parse reads str, a comma-separated list of key=value pairs, into seed
// and fields. Keys are case-insensitive; "seed" takes an unsigned integer
// and every other key a float. An empty string and "off" set nothing.
// Errors are prefixed with pkg, the name of the spec's package.
func Parse(pkg, str string, seed *uint64, fields []Field) error {
	str = strings.TrimSpace(str)
	if str == "" || str == "off" {
		return nil
	}
	for _, kv := range strings.Split(str, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return fmt.Errorf("%s: %q is not key=value", pkg, kv)
		}
		k = strings.ToLower(strings.TrimSpace(k))
		v = strings.TrimSpace(v)
		if k == "seed" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("%s: seed: %w", pkg, err)
			}
			*seed = n
			continue
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", pkg, k, err)
		}
		found := false
		for _, f := range fields {
			if f.Key == k {
				*f.V, found = x, true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s: unknown key %q", pkg, k)
		}
	}
	return nil
}

// FNV-1a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Stream derives an independent generator from a root seed and a stable
// class name, folded with FNV-1a together with any further words (a worker
// index, say), so enabling one fault class never shifts another's draw
// sequence.
func Stream(seed uint64, name string, words ...uint64) *sim.Xorshift {
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	for _, w := range words {
		h ^= w
		h *= fnvPrime
	}
	return sim.NewXorshift(seed ^ h)
}
