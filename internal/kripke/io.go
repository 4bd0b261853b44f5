package kripke

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file provides three interchange formats for Kripke structures:
//
//   - a small line-oriented text format used by the command line tools,
//   - JSON (via jsonStructure), and
//   - Graphviz DOT export for visual inspection of the figures.
//
// Text format, one directive per line ('#' starts a comment):
//
//	structure NAME
//	state ID [initial] [: prop prop ...]
//	trans FROM TO [TO ...]
//
// Propositions are written "name" or "name[index]".  States may be declared
// in any order, each id once, and exactly one state is marked initial.

// EncodeText writes m to w in the text format.
func EncodeText(w io.Writer, m *Structure) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "structure %s\n", sanitizeName(m.Name())); err != nil {
		return err
	}
	for s := 0; s < m.NumStates(); s++ {
		parts := []string{"state", strconv.Itoa(s)}
		if State(s) == m.Initial() {
			parts = append(parts, "initial")
		}
		if lbl := m.Label(State(s)); len(lbl) > 0 {
			parts = append(parts, ":")
			for _, p := range lbl {
				parts = append(parts, p.String())
			}
		}
		if _, err := fmt.Fprintln(bw, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	for s := 0; s < m.NumStates(); s++ {
		succ := m.Succ(State(s))
		if len(succ) == 0 {
			continue
		}
		parts := []string{"trans", strconv.Itoa(s)}
		for _, t := range succ {
			parts = append(parts, strconv.Itoa(int(t)))
		}
		if _, err := fmt.Fprintln(bw, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func sanitizeName(name string) string {
	if name == "" {
		return "unnamed"
	}
	return strings.ReplaceAll(name, " ", "_")
}

// DecodeText parses a structure from the text format.  The transition
// relation is not required to be total; callers that need a proper Kripke
// structure should check Validate or apply MakeTotal/RestrictReachable.
func DecodeText(r io.Reader) (*Structure, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	b := NewBuilder("decoded")
	declared := map[int]State{}
	declaredAt := map[int]int{} // line of each id's declaration
	var pendingEdges [][2]int
	initial, initialAt := -1, 0
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "structure":
			if len(fields) >= 2 {
				b.name = fields[1]
			}
		case "state":
			if len(fields) < 2 {
				return nil, fmt.Errorf("kripke: line %d: state needs an identifier", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("kripke: line %d: bad state id %q", lineNo, fields[1])
			}
			rest := fields[2:]
			isInitial := false
			if len(rest) > 0 && rest[0] == "initial" {
				isInitial = true
				rest = rest[1:]
			}
			var props []Prop
			if len(rest) > 0 {
				if rest[0] != ":" {
					return nil, fmt.Errorf("kripke: line %d: expected ':' before propositions", lineNo)
				}
				for _, tok := range rest[1:] {
					p, err := ParseProp(tok)
					if err != nil {
						return nil, fmt.Errorf("kripke: line %d: %v", lineNo, err)
					}
					props = append(props, p)
				}
			}
			// A second declaration would orphan the first state: its
			// transitions attach to the second, leaving it without
			// successors far from the cause.
			if at, ok := declaredAt[id]; ok {
				return nil, fmt.Errorf("kripke: line %d: state %d is already declared at line %d", lineNo, id, at)
			}
			if isInitial && initial >= 0 {
				return nil, fmt.Errorf("kripke: line %d: state %d is marked initial, but state %d already is at line %d", lineNo, id, initial, initialAt)
			}
			declared[id] = b.AddState(props...)
			declaredAt[id] = lineNo
			if isInitial {
				initial, initialAt = id, lineNo
			}
		case "trans":
			if len(fields) < 3 {
				return nil, fmt.Errorf("kripke: line %d: trans needs a source and at least one target", lineNo)
			}
			from, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("kripke: line %d: bad state id %q", lineNo, fields[1])
			}
			for _, f := range fields[2:] {
				to, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("kripke: line %d: bad state id %q", lineNo, f)
				}
				pendingEdges = append(pendingEdges, [2]int{from, to})
			}
		default:
			return nil, fmt.Errorf("kripke: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("kripke: reading input: %w", err)
	}
	for _, e := range pendingEdges {
		from, ok := declared[e[0]]
		if !ok {
			return nil, fmt.Errorf("kripke: transition from undeclared state %d", e[0])
		}
		to, ok := declared[e[1]]
		if !ok {
			return nil, fmt.Errorf("kripke: transition to undeclared state %d", e[1])
		}
		if err := b.AddTransition(from, to); err != nil {
			return nil, err
		}
	}
	if initial < 0 {
		return nil, fmt.Errorf("kripke: no state marked initial")
	}
	if err := b.SetInitial(declared[initial]); err != nil {
		return nil, err
	}
	return b.BuildPartial()
}

// ParseProp parses a proposition written as "name" or "name[index]".
func ParseProp(s string) (Prop, error) {
	if i := strings.IndexByte(s, '['); i >= 0 {
		if !strings.HasSuffix(s, "]") {
			return Prop{}, fmt.Errorf("kripke: malformed proposition %q", s)
		}
		idx, err := strconv.Atoi(s[i+1 : len(s)-1])
		if err != nil {
			return Prop{}, fmt.Errorf("kripke: malformed proposition index in %q", s)
		}
		name := s[:i]
		if name == "" {
			return Prop{}, fmt.Errorf("kripke: empty proposition name in %q", s)
		}
		return PI(name, idx), nil
	}
	if s == "" {
		return Prop{}, fmt.Errorf("kripke: empty proposition name")
	}
	return P(s), nil
}

// jsonStructure is the JSON representation of a Structure.
type jsonStructure struct {
	Name        string     `json:"name"`
	Initial     int        `json:"initial"`
	States      [][]string `json:"states"`
	Transitions [][2]int   `json:"transitions"`
	IndexValues []int      `json:"index_values,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (m *Structure) MarshalJSON() ([]byte, error) {
	js := jsonStructure{
		Name:        m.Name(),
		Initial:     int(m.Initial()),
		States:      make([][]string, m.NumStates()),
		IndexValues: m.IndexValues(),
	}
	for s := 0; s < m.NumStates(); s++ {
		lbl := m.Label(State(s))
		props := make([]string, 0, len(lbl))
		for _, p := range lbl {
			props = append(props, p.String())
		}
		js.States[s] = props
		for _, t := range m.Succ(State(s)) {
			js.Transitions = append(js.Transitions, [2]int{s, int(t)})
		}
	}
	return json.Marshal(js)
}

// UnmarshalStructureJSON decodes a structure previously produced by
// MarshalJSON.
func UnmarshalStructureJSON(data []byte) (*Structure, error) {
	var js jsonStructure
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("kripke: decoding JSON: %w", err)
	}
	b := NewBuilder(js.Name)
	for _, props := range js.States {
		lbl := make([]Prop, 0, len(props))
		for _, ps := range props {
			p, err := ParseProp(ps)
			if err != nil {
				return nil, err
			}
			lbl = append(lbl, p)
		}
		b.AddState(lbl...)
	}
	for _, i := range js.IndexValues {
		b.DeclareIndex(i)
	}
	for _, e := range js.Transitions {
		if err := b.AddTransition(State(e[0]), State(e[1])); err != nil {
			return nil, err
		}
	}
	if err := b.SetInitial(State(js.Initial)); err != nil {
		return nil, err
	}
	return b.BuildPartial()
}

// DOT returns a Graphviz representation of the structure, suitable for
// rendering the paper's figures.  States are labelled with their
// propositions; the initial state is drawn with a double circle.
func (m *Structure) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph ")
	sb.WriteString(strconv.Quote(sanitizeName(m.Name())))
	sb.WriteString(" {\n  rankdir=LR;\n  node [shape=circle];\n")
	for s := 0; s < m.NumStates(); s++ {
		lbl := m.Label(State(s))
		names := make([]string, 0, len(lbl))
		for _, p := range lbl {
			names = append(names, p.String())
		}
		sort.Strings(names)
		shape := ""
		if State(s) == m.Initial() {
			shape = ", shape=doublecircle"
		}
		fmt.Fprintf(&sb, "  s%d [label=%q%s];\n", s, fmt.Sprintf("s%d\\n{%s}", s, strings.Join(names, ",")), shape)
	}
	for s := 0; s < m.NumStates(); s++ {
		for _, t := range m.Succ(State(s)) {
			fmt.Fprintf(&sb, "  s%d -> s%d;\n", s, t)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
