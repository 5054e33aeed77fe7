package tenant

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// File is the on-disk tenant declaration loaded by chronosd's -tenants flag:
//
//	{
//	  "tenants": [
//	    {"name": "etl-nightly", "budget": 50000, "refillPerSec": 25,
//	     "theta": 1e-4, "unitPrice": 1, "rmin": 0.9},
//	    {"name": "ad-hoc", "budget": 5000}
//	  ]
//	}
//
// Zero theta/unitPrice take the package defaults; rmin defaults to 0 (any
// PoCD acceptable); refillPerSec 0 means a fixed budget. Keys other than
// these six are an error.
type File struct {
	Tenants []PoolConfig `json:"tenants"`
}

// PoolConfig is one pool declaration: a name plus its Limits, flattened into
// a single JSON object.
type PoolConfig struct {
	Name string `json:"name"`
	Limits
}

// Parse decodes and validates a tenant config document.
func Parse(data []byte) (*Registry, error) {
	// Strict, like ring.LoadFile: a misspelt key ("refilPerSec", "rmn") must
	// fail the load, not silently leave the field at zero — RMin 0 admits
	// worthless squeezed plans.
	var f File
	if err := decodeStrict(data, &f); err != nil {
		return nil, fmt.Errorf("tenant: invalid config: %w", err)
	}
	if len(f.Tenants) == 0 {
		return nil, fmt.Errorf("tenant: config declares no tenants")
	}
	limits := make(map[string]Limits, len(f.Tenants))
	for i, pc := range f.Tenants {
		if pc.Name == "" {
			return nil, fmt.Errorf("tenant: entry %d: name must be non-empty", i)
		}
		if _, dup := limits[pc.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicate, pc.Name)
		}
		limits[pc.Name] = pc.Limits
	}
	return NewRegistry(limits)
}

// decodeStrict decodes the one JSON document in data into v. A key v has no
// field for, or anything after the document, is an error.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the document")
	}
	return nil
}

// LoadFile reads and parses the tenant config at path.
func LoadFile(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	return Parse(data)
}
