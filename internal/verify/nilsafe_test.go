package verify

import (
	"reflect"
	"testing"
)

// TestProbesNilSafe calls every exported method of the verifier and its ledgers on
// a nil receiver, with zero-valued arguments, and requires an immediate
// return with zero results. Components hold nil verifiers and ledgers
// whenever verification is off, so a missing nil check panics here rather
// than in an unverified run. Methods promoted from sim.ComponentBase are not
// part of the contract.
func TestProbesNilSafe(t *testing.T) {
	for _, recv := range []any{
		(*Verifier)(nil),
		(*CreditLedger)(nil),
		(*BufferLedger)(nil),
	} {
		callAllOnNil(t, recv)
	}
}

// callAllOnNil invokes every exported method declared on recv's type (not
// promoted from an embedded field) with zero-valued arguments.
func callAllOnNil(t *testing.T, recv any) {
	t.Helper()
	rv := reflect.ValueOf(recv)
	rt := rv.Type()
	promoted := map[string]bool{}
	if st := rt.Elem(); st.Kind() == reflect.Struct {
		for i := 0; i < st.NumField(); i++ {
			if f := st.Field(i); f.Anonymous {
				pt := reflect.PointerTo(f.Type)
				for j := 0; j < pt.NumMethod(); j++ {
					promoted[pt.Method(j).Name] = true
				}
			}
		}
	}
	called := 0
	for i := 0; i < rt.NumMethod(); i++ {
		m := rt.Method(i)
		if promoted[m.Name] {
			continue
		}
		args := make([]reflect.Value, m.Type.NumIn()-1)
		for j := range args {
			args[j] = reflect.Zero(m.Type.In(j + 1))
		}
		called++
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(%v).%s on a nil receiver panicked: %v", rt, m.Name, r)
				}
			}()
			call := rv.Method(i).Call
			if m.Type.IsVariadic() {
				call = rv.Method(i).CallSlice
			}
			for k, out := range call(args) {
				if !out.IsZero() {
					t.Errorf("(%v).%s on a nil receiver returned non-zero result %d: %v", rt, m.Name, k, out)
				}
			}
		}()
	}
	if called == 0 {
		t.Errorf("%v has no exported methods of its own to check", rt)
	}
}
