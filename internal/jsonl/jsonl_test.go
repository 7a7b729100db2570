package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type rec struct {
	N    int    `json:"n"`
	Note string `json:"note,omitempty"`
}

// TestRoundTrip: Write then Read reproduces the records, in memory and
// through the file helpers, one json.Marshal line per record.
func TestRoundTrip(t *testing.T) {
	recs := []rec{{N: 1}, {N: 2, Note: "<a&b>"}, {N: -3}}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, r := range recs {
		b, _ := json.Marshal(r)
		want.Write(append(b, '\n'))
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatalf("Write differs from json.Marshal per line:\n%s\nwant:\n%s", buf.Bytes(), want.Bytes())
	}
	got, err := Read[rec](&buf, nil)
	if err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("in-memory round trip: %+v, %v", got, err)
	}
	path := filepath.Join(t.TempDir(), "recs.jsonl")
	if err := WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadFile[rec](path, nil); err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("file round trip: %+v, %v", got, err)
	}
}

// TestReadNamesTheLine: blank lines are skipped, and a line that does not
// decode or fails the check is refused by its line number.
func TestReadNamesTheLine(t *testing.T) {
	got, err := Read[rec](strings.NewReader("\n{\"n\":5}\n\n"), nil)
	if err != nil || len(got) != 1 || got[0].N != 5 {
		t.Fatalf("blank lines must be skipped: %+v, %v", got, err)
	}
	if _, err := Read[rec](strings.NewReader("{\"n\":5}\nnot json\n"), nil); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("corrupt line error must name the line: %v", err)
	}
	negative := errors.New("negative")
	check := func(r rec) error {
		if r.N < 0 {
			return negative
		}
		return nil
	}
	_, err = Read(strings.NewReader("{\"n\":1}\n\n{\"n\":-1}\n"), check)
	if !errors.Is(err, negative) || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("refused record error must wrap the check's error and name the line: %v", err)
	}
}
