package bench

import (
	"reflect"
	"testing"
)

// The parallel harness must be invisible in the results: the same cells
// run, and rows are assembled by index, so Workers=4 must reproduce a
// Workers=1 run field-for-field.
func TestParallelMatchesSerial(t *testing.T) {
	withWorkers := func(w int) []SpecRow {
		t.Helper()
		rows, err := Harness{Workers: w}.RunSpec(goldenScaleDiv, []Config{ByteUnsafe, WordUnsafe})
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		return rows
	}
	serial := withWorkers(1)
	parallel := withWorkers(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel RunSpec diverged from serial:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

func TestParallelForLowestIndexError(t *testing.T) {
	for _, w := range []int{1, 4} {
		err := Harness{Workers: w}.parallelFor(16, func(i int) error {
			if i == 3 || i == 11 {
				return errIndex(i)
			}
			return nil
		})
		if got, ok := err.(errIndex); !ok || int(got) != 3 {
			t.Errorf("Workers=%d: got %v, want index-3 error", w, err)
		}
	}
}

type errIndex int

func (e errIndex) Error() string { return "cell failed" }

func TestParallelForEmpty(t *testing.T) {
	if err := (Harness{}).parallelFor(0, func(int) error { t.Fatal("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
}
