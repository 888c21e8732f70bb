package obs

import "sort"

// SpanNode is one reconstructed span in a trace forest. EndNS is 0
// and Err empty while (or if) the span never closed — an unclosed
// span is evidence, not an error, so reconstruction keeps it. Batch
// and Clients come from a round span's start, Survivors from its end;
// Bytes and Outcome from an attempt span's end.
type SpanNode struct {
	Trace     uint64
	ID        uint64
	Parent    uint64
	Kind      string
	Name      string
	Seq       int
	Client    int
	StartNS   int64
	EndNS     int64
	Err       string
	Batch     int
	Clients   int
	Survivors int
	Bytes     int64
	Outcome   string
	Children  []*SpanNode
}

// DurationNS is the span's closed duration, 0 while open.
func (n *SpanNode) DurationNS() int64 {
	if n.EndNS == 0 {
		return 0
	}
	return n.EndNS - n.StartNS
}

// BuildSpanForest reconstructs the span trees from a recorded event
// stream; it accepts span events by value (as live recorders see
// them) or by pointer (as DecodeEvent yields them). Spans whose
// parent never appears (dropped lines, truncated traces) surface as
// roots rather than vanishing. Sibling order is deterministic —
// (Seq, Name, ID), never timestamps, which race for concurrent call
// spans — so the forest's shape is a pure function of the run's
// decisions.
func BuildSpanForest(events []Event) []*SpanNode {
	byID := make(map[uint64]*SpanNode)
	var order []*SpanNode
	for _, ev := range events {
		if start, ok := asSpanStart(ev); ok {
			n := &SpanNode{
				Trace:   parseHexID(start.Trace),
				ID:      parseHexID(start.Span),
				Parent:  parseHexID(start.Parent),
				Kind:    start.Kind,
				Name:    start.Name,
				Seq:     start.Seq,
				Client:  start.Client,
				StartNS: start.StartNS,
				Batch:   start.Batch,
				Clients: start.Clients,
			}
			if _, dup := byID[n.ID]; !dup {
				byID[n.ID] = n
				order = append(order, n)
			}
			continue
		}
		if end, ok := asSpanEnd(ev); ok {
			if n := byID[parseHexID(end.Span)]; n != nil {
				n.EndNS = end.EndNS
				n.Err = end.Err
				n.Survivors = end.Survivors
				n.Bytes = end.Bytes
				n.Outcome = end.Outcome
			}
		}
	}
	var roots []*SpanNode
	for _, n := range order {
		if p := byID[n.Parent]; p != nil && n.Parent != n.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortSpans(roots)
	for _, n := range order {
		sortSpans(n.Children)
	}
	return roots
}

func asSpanStart(ev Event) (SpanStart, bool) {
	switch e := ev.(type) {
	case SpanStart:
		return e, true
	case *SpanStart:
		return *e, true
	}
	return SpanStart{}, false
}

func asSpanEnd(ev Event) (SpanEnd, bool) {
	switch e := ev.(type) {
	case SpanEnd:
		return e, true
	case *SpanEnd:
		return *e, true
	}
	return SpanEnd{}, false
}

func sortSpans(ns []*SpanNode) {
	sort.Slice(ns, func(i, j int) bool {
		a, b := ns[i], ns[j]
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.ID < b.ID
	})
}
