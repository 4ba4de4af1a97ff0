package iofault

import (
	"bytes"
	"errors"
	"fmt"
	"syscall"
	"testing"
)

func newMemDevice(n int) *Mem { return NewMem(make([]byte, n)) }

func TestTransientFaultClearsAfterCount(t *testing.T) {
	m := newMemDevice(64)
	in := NewInjector(m, 1)
	in.Add(Fault{Ops: OpWrite, Count: 2})
	for i := 0; i < 2; i++ {
		if _, err := in.WriteAt([]byte("x"), 0); !IsTransient(err) {
			t.Fatalf("write %d: want transient fault, got %v", i, err)
		}
	}
	if _, err := in.WriteAt([]byte("y"), 0); err != nil {
		t.Fatalf("fault did not clear: %v", err)
	}
	if m.Bytes()[0] != 'y' {
		t.Fatal("cleared write did not reach the device")
	}
}

func TestPermanentFaultNeverClears(t *testing.T) {
	m := NewInjector(newMemDevice(64), 1)
	in := NewInjector(m, 1)
	in.Add(Fault{Ops: OpSync, Count: -1})
	for i := 0; i < 5; i++ {
		err := in.Sync()
		if err == nil || IsTransient(err) {
			t.Fatalf("sync %d: want permanent fault, got %v", i, err)
		}
		if !errors.Is(err, ErrPermanent) {
			t.Fatalf("sync %d: error not marked permanent: %v", i, err)
		}
	}
	if m.Stats().Syncs != 0 {
		t.Fatal("faulted syncs reached the device")
	}
}

func TestAfterSkipsOperations(t *testing.T) {
	m := newMemDevice(64)
	in := NewInjector(m, 1)
	in.Add(Fault{Ops: OpWrite, After: 3, Count: 1})
	for i := 0; i < 3; i++ {
		if _, err := in.WriteAt([]byte("a"), int64(i)); err != nil {
			t.Fatalf("write %d should pass: %v", i, err)
		}
	}
	if _, err := in.WriteAt([]byte("b"), 3); err == nil {
		t.Fatal("fourth write should fault")
	}
	if _, err := in.WriteAt([]byte("c"), 4); err != nil {
		t.Fatalf("fifth write should pass again: %v", err)
	}
}

func TestTornWritePersistsStrictPrefix(t *testing.T) {
	m := newMemDevice(64)
	in := NewInjector(m, 1)
	in.Add(Fault{Ops: OpWrite, Count: 1, Torn: true, TornFrac: 0.25})
	payload := bytes.Repeat([]byte{0xAB}, 16)
	n, err := in.WriteAt(payload, 0)
	if err == nil {
		t.Fatal("torn write must report an error")
	}
	if n <= 0 || n >= len(payload) {
		t.Fatalf("torn write persisted %d of %d bytes; want strict prefix", n, len(payload))
	}
	data := m.Bytes()
	if !bytes.Equal(data[:n], payload[:n]) {
		t.Fatal("torn prefix differs from payload")
	}
	for _, b := range data[n:16] {
		if b != 0 {
			t.Fatal("bytes beyond the torn prefix reached the device")
		}
	}
}

func TestProbabilisticFaultIsSeededAndBounded(t *testing.T) {
	m := newMemDevice(64)
	in := NewInjector(m, 42)
	in.Add(Fault{Ops: OpWrite, Count: 3, Prob: 0.5})
	faults := 0
	for i := 0; i < 100; i++ {
		if _, err := in.WriteAt([]byte("z"), 0); err != nil {
			faults++
		}
	}
	if faults != 3 {
		t.Fatalf("probabilistic fault fired %d times; Count bounds it to 3", faults)
	}
	st := in.Stats()
	if st.Writes != 100 || st.Faults != 3 {
		t.Fatalf("stats mismatch: %+v", st)
	}
}

func TestClearDropsSchedule(t *testing.T) {
	m := newMemDevice(64)
	in := NewInjector(m, 1)
	in.Add(Fault{Ops: OpWrite | OpSync, Count: -1})
	if _, err := in.WriteAt([]byte("a"), 0); err == nil {
		t.Fatal("fault should fire before Clear")
	}
	in.Clear()
	if _, err := in.WriteAt([]byte("a"), 0); err != nil {
		t.Fatalf("fault survived Clear: %v", err)
	}
	if err := in.Sync(); err != nil {
		t.Fatalf("sync fault survived Clear: %v", err)
	}
}

func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{fmt.Errorf("wrapped: %w", ErrTransient), true},
		{fmt.Errorf("wrapped: %w", syscall.EINTR), true},
		{fmt.Errorf("wrapped: %w", syscall.EAGAIN), true},
		{fmt.Errorf("wrapped: %w", ErrPermanent), false},
		{errors.New("some disk error"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
