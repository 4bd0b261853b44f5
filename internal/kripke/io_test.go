package kripke

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// randomStructure builds a pseudo-random partial structure: up to maxStates
// states with random plain/indexed labels and random edges.  Deterministic
// in the rng.
func randomStructure(rng *rand.Rand, maxStates int) *Structure {
	n := 1 + rng.Intn(maxStates)
	b := NewBuilder(fmt.Sprintf("rand%d", n))
	names := []string{"p", "q", "walk", "tok"}
	for s := 0; s < n; s++ {
		var props []Prop
		for _, name := range names {
			switch rng.Intn(3) {
			case 0:
				props = append(props, P(name))
			case 1:
				props = append(props, PI(name, rng.Intn(4)))
			}
		}
		b.AddState(props...)
	}
	for s := 0; s < n; s++ {
		edges := rng.Intn(3)
		for e := 0; e < edges; e++ {
			if err := b.AddTransition(State(s), State(rng.Intn(n))); err != nil {
				panic(err)
			}
		}
	}
	if err := b.SetInitial(State(rng.Intn(n))); err != nil {
		panic(err)
	}
	m, err := b.BuildPartial()
	if err != nil {
		panic(err)
	}
	return m
}

// equalStructures compares two structures field by field (name, initial,
// labels, successor lists).
func equalStructures(a, b *Structure) error {
	if a.Name() != b.Name() {
		return fmt.Errorf("names differ: %q vs %q", a.Name(), b.Name())
	}
	if a.NumStates() != b.NumStates() {
		return fmt.Errorf("state counts differ: %d vs %d", a.NumStates(), b.NumStates())
	}
	if a.Initial() != b.Initial() {
		return fmt.Errorf("initial states differ: %d vs %d", a.Initial(), b.Initial())
	}
	for s := 0; s < a.NumStates(); s++ {
		if a.LabelKey(State(s)) != b.LabelKey(State(s)) {
			return fmt.Errorf("state %d labels differ: %q vs %q", s, a.LabelKey(State(s)), b.LabelKey(State(s)))
		}
		as, bs := a.Succ(State(s)), b.Succ(State(s))
		if len(as) != len(bs) {
			return fmt.Errorf("state %d successor counts differ: %v vs %v", s, as, bs)
		}
		for i := range as {
			if as[i] != bs[i] {
				return fmt.Errorf("state %d successors differ: %v vs %v", s, as, bs)
			}
		}
	}
	return nil
}

// TestTextRoundTripProperty is the round-trip property test for the text
// format: parse(print(m)) is identical to m, and printing is a fixpoint
// (print(parse(print(m))) == print(m)) — across many random structures.
func TestTextRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		m := randomStructure(rng, 12)
		var buf bytes.Buffer
		if err := EncodeText(&buf, m); err != nil {
			t.Fatalf("EncodeText: %v", err)
		}
		first := buf.String()
		decoded, err := DecodeText(strings.NewReader(first))
		if err != nil {
			t.Fatalf("DecodeText of\n%s: %v", first, err)
		}
		if err := equalStructures(m, decoded); err != nil {
			t.Fatalf("round trip %d not identical: %v\ninput:\n%s", i, err, first)
		}
		var buf2 bytes.Buffer
		if err := EncodeText(&buf2, decoded); err != nil {
			t.Fatalf("second EncodeText: %v", err)
		}
		if buf2.String() != first {
			t.Fatalf("printing is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", first, buf2.String())
		}
	}
}

// TestJSONRoundTripProperty is the same property through the JSON format.
func TestJSONRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		m := randomStructure(rng, 10)
		data, err := m.MarshalJSON()
		if err != nil {
			t.Fatalf("MarshalJSON: %v", err)
		}
		decoded, err := UnmarshalStructureJSON(data)
		if err != nil {
			t.Fatalf("UnmarshalStructureJSON: %v", err)
		}
		if err := equalStructures(m, decoded); err != nil {
			t.Fatalf("JSON round trip %d not identical: %v\n%s", i, err, data)
		}
	}
}

// TestDecodeTextRejectsDuplicateDeclaration: a second declaration of a
// state id, or a second initial state, is an error naming both lines.
// Accepting it used to orphan the first declaration as an extra state with
// no successors.
func TestDecodeTextRejectsDuplicateDeclaration(t *testing.T) {
	for _, tc := range []struct {
		name, input, want string
	}{
		{"relabelled id", "state 0 initial : p\nstate 1 : q\nstate 1 : r\ntrans 0 1\ntrans 1 0\n",
			"line 3: state 1 is already declared at line 2"},
		{"initial declared twice", "structure m\nstate 0 initial\nstate 0 initial\ntrans 0 0\n",
			"line 3: state 0 is already declared at line 2"},
		{"two initial states", "state 0 initial\n# second\nstate 1 initial\ntrans 0 1\ntrans 1 0\n",
			"line 3: state 1 is marked initial, but state 0 already is at line 1"},
	} {
		m, err := DecodeText(strings.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: decoded %d states, want an error", tc.name, m.NumStates())
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecodeText fuzzes the text-format parser: it must never panic, and
// whenever it accepts an input, encoding the result and re-parsing it must
// succeed and be stable.
func FuzzDecodeText(f *testing.F) {
	f.Add("structure m\nstate 0 initial : p q[1]\nstate 1 : q\ntrans 0 1\ntrans 1 0\n")
	f.Add("state 0 initial\ntrans 0 0\n")
	f.Add("# comment\n\nstructure x\nstate 2 : tok[10]\nstate 0 initial\ntrans 2 0 0 2\n")
	f.Add("structure bad\nstate notanumber\n")
	f.Add("trans 0 1\n")
	f.Add("state 0 : p[\n")
	f.Add("state 0 initial : \n")
	f.Add("state 0 initial : p\nstate 1 : q\nstate 1 : r\ntrans 0 1\ntrans 1 0\n")
	f.Add(wideStructureText(70))
	f.Fuzz(func(t *testing.T, input string) {
		m, err := DecodeText(strings.NewReader(input))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		var buf bytes.Buffer
		if err := EncodeText(&buf, m); err != nil {
			t.Fatalf("EncodeText of accepted input failed: %v\ninput:\n%q", err, input)
		}
		again, err := DecodeText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding printed form failed: %v\nprinted:\n%s", err, buf.String())
		}
		if err := equalStructures(m, again); err != nil {
			t.Fatalf("printed form decodes differently: %v", err)
		}
	})
}

// wideStructureText returns a two-state structure whose labels use n
// propositions in all (n/2 plain, the rest indexed), so for n > 64 every
// label row spans several words.
func wideStructureText(n int) string {
	var sb strings.Builder
	sb.WriteString("structure wide\nstate 0 initial :")
	for k := 0; k < n/2; k++ {
		fmt.Fprintf(&sb, " a%d", k)
	}
	sb.WriteString("\nstate 1 :")
	for k := n / 2; k < n; k++ {
		fmt.Fprintf(&sb, " b[%d]", k)
	}
	sb.WriteString("\ntrans 0 1\ntrans 1 0\n")
	return sb.String()
}
