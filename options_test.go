package rvm

import (
	"reflect"
	"testing"

	"github.com/rvm-go/rvm/internal/core"
)

// TestOptionsForwarded sets every Options field to a non-zero value and
// requires the engine's field of the same name (Tracer for TraceEvents) to
// come out of Options.engine non-zero: a field added here and not forwarded
// fails.  It also pins the two field counts, so the next knob has to edit a
// number in this test.
func TestOptionsForwarded(t *testing.T) {
	const maxFields, maxEngineFields = 5, 9

	var o Options
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Float64:
			f.SetFloat(0.25)
		default:
			t.Fatalf("Options.%s: this test cannot set a %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	eng := reflect.ValueOf(o.engine())
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		to := name
		if name == "TraceEvents" {
			to = "Tracer"
		}
		if f := eng.FieldByName(to); !f.IsValid() || f.IsZero() {
			t.Errorf("Options.%s is set but core.Options.%s is not: Options.engine does not forward it", name, to)
		}
	}
	if n := v.NumField(); n > maxFields {
		t.Errorf("Options has %d fields, at most %d allowed: a new knob needs two callers outside the tests that want different values", n, maxFields)
	}
	if n := reflect.TypeOf(core.Options{}).NumField(); n > maxEngineFields {
		t.Errorf("core.Options has %d fields, at most %d allowed", n, maxEngineFields)
	}
}
