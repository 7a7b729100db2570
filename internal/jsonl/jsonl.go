// Package jsonl is the one JSON Lines codec: one JSON object per line,
// the portable, diffable form of every replayable log — loadgen request
// traces, fault logs and span exports. A line is what json.Marshal
// writes for the record plus a newline.
package jsonl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Write emits recs as JSONL, one object per line in slice order.
func Write[T any](w io.Writer, recs []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("jsonl: write record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses JSONL, skipping blank lines. check, when non-nil, vets
// each decoded record; a record that fails to decode or to pass check
// fails the read with an error naming its line.
func Read[T any](r io.Reader, check func(T) error) ([]T, error) {
	var recs []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec T
		err := json.Unmarshal(raw, &rec)
		if err == nil && check != nil {
			err = check(rec)
		}
		if err != nil {
			return nil, fmt.Errorf("jsonl: line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("jsonl: %w", err)
	}
	return recs, nil
}

// WriteFile writes recs to path (overwriting) as JSONL.
func WriteFile[T any](path string, recs []T) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads the JSONL file at path, vetting each record with check
// as Read does.
func ReadFile[T any](path string, check func(T) error) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, check)
}
