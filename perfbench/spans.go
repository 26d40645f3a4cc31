package main

import (
	"sort"
	"strings"
	"time"
)

// spanStats summarises one rank's spans over a set of steps.
type spanStats struct {
	steps int
	total map[string]time.Duration // summed duration by span name
	count map[string]int           // spans by name
	self  map[string]time.Duration // summed self time by span name
}

// mean is the mean duration of one span of that name.
func (s spanStats) mean(name string) time.Duration {
	if s.count[name] == 0 {
		return 0
	}
	return s.total[name] / time.Duration(s.count[name])
}

// summarizeSpans gathers rank's spans of the given steps. A span's self
// time is its duration minus the part of it that its children's
// intervals cover.
func summarizeSpans(spans []Span, rank int, steps map[int]bool) spanStats {
	st := spanStats{steps: len(steps), total: map[string]time.Duration{}, count: map[string]int{}, self: map[string]time.Duration{}}
	children := map[int64][]Span{}
	var mine []Span
	for _, s := range spans {
		if s.Rank != rank || !steps[s.Step] {
			continue
		}
		mine = append(mine, s)
		// Transport spans run on the group's goroutines; they are
		// parented to their step but do not tile it.
		if !strings.HasPrefix(s.Name, "transport.") {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range mine {
		st.total[s.Name] += s.Dur()
		st.count[s.Name]++
		st.self[s.Name] += s.Dur() - covered(s, children[s.ID])
	}
	return st
}

// covered is how much of parent's interval the union of the children's
// intervals covers.
func covered(parent Span, children []Span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		sum += v.hi - max(v.lo, end)
		end = v.hi
	}
	return time.Duration(sum)
}
