// Package trace turns journal snapshots into a human-readable story:
// it merges per-server flight-recorder sections by wall-clock time into
// one timeline with per-server lanes, highlights the events that signal
// trouble (retries, stalls, stream errors, degraded transitions), and
// names the server the evidence points at. It is the library behind
// cmd/frtrace and the assertion surface for the checker's fault tests.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"faultyrank/internal/telemetry"
)

// hotKinds maps event kinds that indicate trouble to a suspicion
// weight: 1 = friction (retries, stalls), 2 = a lost capability
// (degraded completion, warm fallback), 3 = a hard failure (stream
// errors, failed scans or rounds). The weights drive culprit ranking;
// any nonzero weight marks the timeline row.
var hotKinds = map[string]int{
	"dial-retry":         1,
	"slow-frame":         1,
	"frontier-saturated": 1,
	"warm-fallback":      2,
	"degraded":           2,
	"stale":              2,
	"stream-error":       3,
	"scan-failed":        3,
	"feed-error":         3,
	"round-failed":       3,
}

// A TimelineEvent is one journal event placed on the merged wall-clock
// axis: absolute time, the lane (origin journal) it belongs to, and a
// Hot mark when its kind is in the trouble vocabulary.
type TimelineEvent struct {
	Wall      int64            `json:"wall_unix_nano"`
	Server    string           `json:"server"`
	Component string           `json:"component"`
	Kind      string           `json:"kind"`
	Attrs     []telemetry.Attr `json:"attrs,omitempty"`
	Hot       bool             `json:"hot,omitempty"`
}

// Attr returns the value of the first attribute named k ("" if absent).
func (e TimelineEvent) Attr(k string) string {
	for _, a := range e.Attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

// A KindCount tallies one event kind against a suspect.
type KindCount struct {
	Kind  string `json:"kind"`
	Count int    `json:"count"`
}

// A Suspect is one server with accumulated trouble evidence. Suspects
// sort by score descending (ties toward the smaller name), so
// Suspects[0] is the culpable server the render names.
type Suspect struct {
	Server string      `json:"server"`
	Score  int         `json:"score"`
	Kinds  []KindCount `json:"kinds"`
}

// A Timeline is the merged view over one or more journal sections.
type Timeline struct {
	Sections int             `json:"sections"`
	Dropped  int64           `json:"dropped,omitempty"`
	Lanes    []string        `json:"lanes"`
	Events   []TimelineEvent `json:"events"`
	Suspects []Suspect       `json:"suspects,omitempty"`
}

// Span returns the wall-clock distance between the first and last
// event (0 for fewer than two events).
func (t *Timeline) Span() time.Duration {
	if len(t.Events) < 2 {
		return 0
	}
	return time.Duration(t.Events[len(t.Events)-1].Wall - t.Events[0].Wall)
}

// Culprit returns the top suspect's server name ("" when the timeline
// holds no trouble evidence).
func (t *Timeline) Culprit() string {
	if len(t.Suspects) == 0 {
		return ""
	}
	return t.Suspects[0].Server
}

// laneOf names the lane a section's events render under.
func laneOf(s telemetry.JournalSnapshot) string {
	if s.Server == "" {
		return "(unnamed)"
	}
	return s.Server
}

// Build merges the sections into one timeline: events ordered by
// absolute wall time (section epoch + monotonic offset; ties by lane
// then original order), lanes listed sorted, and suspects ranked from
// the hot-event evidence. Attribution prefers an event's explicit
// server/cluster attribute, then a degraded event's missing list, then
// the lane the event was recorded on — so a coordinator-side "scan
// failed on ost1" still counts against ost1.
func Build(sections []telemetry.JournalSnapshot) *Timeline {
	t := &Timeline{Sections: len(sections)}
	laneSet := map[string]bool{}
	scores := map[string]int{}
	kinds := map[string]map[string]int{}
	blame := func(server, kind string, w int) {
		if server == "" {
			return
		}
		scores[server] += w
		if kinds[server] == nil {
			kinds[server] = map[string]int{}
		}
		kinds[server][kind]++
	}
	for _, s := range sections {
		lane := laneOf(s)
		if !laneSet[lane] {
			laneSet[lane] = true
			t.Lanes = append(t.Lanes, lane)
		}
		t.Dropped += s.Dropped
		for _, e := range s.Events {
			te := TimelineEvent{
				Wall:      s.Wall(e),
				Server:    lane,
				Component: e.Component,
				Kind:      e.Kind,
				Attrs:     e.Attrs,
			}
			if w := hotKinds[e.Kind]; w > 0 {
				te.Hot = true
				switch {
				case te.Attr("server") != "":
					blame(te.Attr("server"), e.Kind, w)
				case te.Attr("cluster") != "":
					blame(te.Attr("cluster"), e.Kind, w)
				case te.Attr("missing") != "":
					for _, srv := range splitList(te.Attr("missing")) {
						blame(srv, e.Kind, w)
					}
				default:
					blame(lane, e.Kind, w)
				}
			}
			t.Events = append(t.Events, te)
		}
	}
	sort.Strings(t.Lanes)
	sort.SliceStable(t.Events, func(i, j int) bool {
		if t.Events[i].Wall != t.Events[j].Wall {
			return t.Events[i].Wall < t.Events[j].Wall
		}
		return t.Events[i].Server < t.Events[j].Server
	})
	for server, score := range scores {
		s := Suspect{Server: server, Score: score}
		for k, n := range kinds[server] {
			s.Kinds = append(s.Kinds, KindCount{Kind: k, Count: n})
		}
		sort.Slice(s.Kinds, func(i, j int) bool {
			if s.Kinds[i].Count != s.Kinds[j].Count {
				return s.Kinds[i].Count > s.Kinds[j].Count
			}
			return s.Kinds[i].Kind < s.Kinds[j].Kind
		})
		t.Suspects = append(t.Suspects, s)
	}
	sort.Slice(t.Suspects, func(i, j int) bool {
		if t.Suspects[i].Score != t.Suspects[j].Score {
			return t.Suspects[i].Score > t.Suspects[j].Score
		}
		return t.Suspects[i].Server < t.Suspects[j].Server
	})
	return t
}

// splitList splits a comma-separated attribute value.
func splitList(v string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(v); i++ {
		if i == len(v) || v[i] == ',' {
			if i > start {
				out = append(out, v[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// WriteText renders the timeline for a terminal: a header, one row per
// event (offset from the first event, lane, component, kind, attrs),
// hot rows marked with '!', and a closing culprit line when the
// evidence names one.
func (t *Timeline) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "journal: %d section(s), %d event(s), %d dropped, span %.4fs\n",
		t.Sections, len(t.Events), t.Dropped, t.Span().Seconds()); err != nil {
		return err
	}
	if len(t.Lanes) > 0 {
		fmt.Fprintf(w, "lanes: %s\n", joinList(t.Lanes))
	}
	laneW, kindW := 0, 0
	for _, l := range t.Lanes {
		laneW = max(laneW, len(l))
	}
	for _, e := range t.Events {
		kindW = max(kindW, len(e.Kind))
	}
	var epoch int64
	if len(t.Events) > 0 {
		epoch = t.Events[0].Wall
	}
	for _, e := range t.Events {
		mark := " "
		if e.Hot {
			mark = "!"
		}
		fmt.Fprintf(w, "%s +%9.4fs  %-*s  %-9s %-*s", mark,
			time.Duration(e.Wall-epoch).Seconds(), laneW, e.Server, e.Component, kindW, e.Kind)
		for _, a := range e.Attrs {
			fmt.Fprintf(w, " %s=%s", a.K, a.V)
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for i, s := range t.Suspects {
		head := "culprit"
		if i > 0 {
			head = "   also"
		}
		fmt.Fprintf(w, "%s: %s —", head, s.Server)
		for j, k := range s.Kinds {
			sep := " "
			if j > 0 {
				sep = ", "
			}
			fmt.Fprintf(w, "%s%s×%d", sep, k.Kind, k.Count)
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the timeline as an indented JSON document with a
// schema tag, mirroring the other machine-readable artifacts.
func (t *Timeline) WriteJSON(w io.Writer) error {
	doc := struct {
		Schema string `json:"schema"`
		*Timeline
	}{Schema: "frtrace/timeline/v1", Timeline: t}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func joinList(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out
}
