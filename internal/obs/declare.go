package obs

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
)

// A metric is declared once, as a struct field, and every surface is
// derived from the field's tags (DESIGN.md §11):
//
//	json   its key in Snapshot JSON (encoding/json reads this one)
//	prom   its Prometheus family, "rvm_widgets_total"; a fixed label
//	       follows a comma, "rvm_step_ns,phase=encode"; an empty name,
//	       ",phase=append", continues the family of the field above
//	help   the family's HELP text, on the field that names the family
//	label  on one field of a []struct or *struct field's element: its
//	       value labels every sample of that element, `label:"class"`
//
// The kind needs no tag: a HistStat is a summary, any other value is a
// counter if its family ends in _total and a gauge if not.  Nested
// structs are walked in field order.  A field with neither a prom nor a
// label tag is a declaration error, which is what keeps a new metric from
// reaching one surface and missing another.

// Sample is one value of one family, as Walk hands it to a renderer.
type Sample struct {
	Family, Help      string
	Label, LabelValue string    // "" for an unlabelled family
	Value             int64     // a counter's or gauge's value
	Hist              *HistStat // non-nil for a summary
}

// plan is what the tags of one struct type say, computed once per type.
type plan struct {
	fields   []field
	label    string // of the labelling field, "" if none
	labelIdx int
}

type field struct {
	Sample       // the field's samples, less their values
	index  int   // of the field
	sub    *plan // of a struct, *struct or []struct field's element
}

var plans sync.Map // reflect.Type -> *plan

func planOf(t reflect.Type) (*plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*plan), nil
	}
	p := &plan{}
	var family, help string
	for i := 0; i < t.NumField(); i++ {
		sf, f := t.Field(i), field{index: i}
		ft := sf.Type
		if k := ft.Kind(); k == reflect.Pointer || k == reflect.Slice {
			ft = ft.Elem()
		}
		switch tag := sf.Tag.Get("prom"); {
		case sf.Tag.Get("label") != "":
			p.label, p.labelIdx = sf.Tag.Get("label"), i
			continue
		case ft.Kind() == reflect.Struct && ft != reflect.TypeOf(HistStat{}):
			var err error
			if f.sub, err = planOf(ft); err != nil {
				return nil, err
			}
		default:
			name, fixed, _ := strings.Cut(tag, ",")
			if name != "" {
				family, help = name, sf.Tag.Get("help")
			}
			if tag == "" || family == "" || help == "" {
				return nil, fmt.Errorf("obs: %s.%s: a metric needs a prom tag and its family a help tag", t, sf.Name)
			}
			f.Family, f.Help = family, help
			f.Label, f.LabelValue, _ = strings.Cut(fixed, "=")
		}
		p.fields = append(p.fields, f)
	}
	plans.Store(t, p)
	return p, nil
}

// Walk calls emit for every metric declared in the struct v (a Snapshot,
// or any part of one), in declaration order.  The elements of a slice
// are walked field by field, so the samples of one family are always
// consecutive — which the exposition format requires.
func Walk(v any, emit func(Sample)) error {
	rv := reflect.ValueOf(v)
	p, err := planOf(rv.Type())
	if err == nil {
		p.walk([]reflect.Value{rv}, emit)
	}
	return err
}

func (p *plan) walk(elems []reflect.Value, emit func(Sample)) {
	for _, f := range p.fields {
		for _, v := range elems {
			fv, s := v.Field(f.index), f.Sample
			if p.label != "" {
				s.Label, s.LabelValue = p.label, fmt.Sprint(v.Field(p.labelIdx))
			}
			switch fv.Kind() {
			case reflect.Pointer:
				if !fv.IsNil() {
					f.sub.walk([]reflect.Value{fv.Elem()}, emit)
				}
				continue
			case reflect.Slice:
				sub := make([]reflect.Value, fv.Len())
				for i := range sub {
					sub[i] = fv.Index(i)
				}
				f.sub.walk(sub, emit)
				continue
			case reflect.Struct:
				if f.sub != nil {
					f.sub.walk([]reflect.Value{fv}, emit)
					continue
				}
				h := fv.Interface().(HistStat)
				s.Hist = &h
			case reflect.Bool:
				if fv.Bool() {
					s.Value = 1
				}
			case reflect.Uint64:
				s.Value = int64(fv.Uint())
			default:
				s.Value = fv.Int()
			}
			emit(s)
		}
	}
}

// Load fills the snapshot struct *dst from the live struct *src, two
// instantiations of one generic declaration: field i of dst receives the
// loaded value of field i of src (atomic.Uint64 → uint64, Gauge → int64,
// Hist → HistStat).  Fields are loaded last to first, so of two counters
// the one declared earlier is read later.
func Load(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := d.NumField() - 1; i >= 0; i-- {
		switch f := s.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			d.Field(i).SetUint(f.Load())
		case *Gauge:
			d.Field(i).SetInt(f.Load())
		case *Hist:
			d.Field(i).Set(reflect.ValueOf(f.Snapshot()))
		}
	}
}
