package checker

import (
	"fmt"
	"slices"

	"faultyrank/internal/agg"
	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// classify translates the rank-level detection report plus the unified
// graph's presence/claim accounting into file-system-level findings with
// concrete repair actions. Rank attribution (paper §III-F) decides most
// cases; a set of structural refinements grounds the remaining ones in
// Lustre metadata semantics — misdirected point-backs, double claims on
// consistently-owned objects, and objects whose owner lost the forward
// pointer — so every Fig. 7 scenario ends with the most promising repair.
func classify(res *Result, images map[string]*ldiskfs.Image, opt Options) []Finding {
	u := res.Unified
	b := res.Graph
	var findings []Finding

	// Phantom FIDs consumed by an identity fix or a property redirect.
	consumedPhantom := make(map[uint32]bool)
	// Relations already explained by a structural refinement.
	explained := make(map[[2]uint32]bool)

	// ---- 1. rank-based suspects --------------------------------------
	for _, s := range res.Report.Suspects {
		fid := u.FID(s.Vertex)
		if !u.Present[s.Vertex] {
			// A phantom suspect carries no repairable object itself; it
			// resolves through a present suspect's set-id or the
			// phantom pass below.
			continue
		}
		switch s.Field {
		case core.FieldProperty:
			f := Finding{
				Kind: FaultyProperty, FID: fid, Field: s.Field, Score: s.Score,
				Detail: fmt.Sprintf("property rank %.3f below threshold", s.Score),
			}
			for _, r := range res.Report.Repairs {
				if r.Target != s.Vertex || (r.Op != core.RepairSetProperty && r.Op != core.RepairDropPointer) {
					continue
				}
				f.Repairs = append(f.Repairs, RepairAction{
					Op: r.Op, TargetFID: fid, SourceFID: u.FID(r.Source), Kind: r.Kind,
				})
				explained[[2]uint32{r.Source, s.Vertex}] = true
				explained[[2]uint32{s.Vertex, r.Source}] = true
			}
			findings = append(findings, f)
		case core.FieldID:
			f := Finding{
				Kind: FaultyID, FID: fid, Field: s.Field, Score: s.Score,
				Detail: fmt.Sprintf("id rank %.3f below threshold", s.Score),
			}
			if p, ok := matchPhantomIdentity(u, b, s.Vertex); ok {
				// The mis-identified object's peers still reference its
				// old FID: restore the identity (Table I dangling /
				// mismatch, root cause "b's id is wrong").
				consumedPhantom[p] = true
				f.Repairs = append(f.Repairs, RepairAction{
					Op: core.RepairSetID, TargetFID: fid, NewID: u.FID(p),
				})
				f.Detail += fmt.Sprintf("; true identity %v", u.FID(p))
				for _, w := range b.UnpairedOut(s.Vertex) {
					explained[[2]uint32{s.Vertex, w}] = true
					explained[[2]uint32{w, s.Vertex}] = true
				}
				findings = append(findings, f)
				break
			}
			if tgt, kind, ok := ownerLostPointer(u, b, s.Vertex); ok {
				// No dangling pointer anywhere names this object, and it
				// points back at a healthy present owner: the only
				// consistent explanation is that the owner's property
				// lost the entry (Table I unreferenced, "neighbours'
				// properties are wrong"). Repair the owner.
				findings = append(findings, Finding{
					Kind: FaultyProperty, FID: u.FID(tgt), Field: core.FieldProperty,
					Score:  res.Rank.PropRank[tgt],
					Detail: fmt.Sprintf("lost its %v entry for %v", kind.Counterpart(), fid),
					Repairs: []RepairAction{{
						Op: core.RepairSetProperty, TargetFID: u.FID(tgt),
						SourceFID: fid, Kind: kind.Counterpart(),
					}},
				})
				explained[[2]uint32{s.Vertex, tgt}] = true
				break
			}
			findings = append(findings, f)
		}
	}

	// ---- 2. structural refinement of remaining unpaired relations -----
	// Walk unpaired forward property edges (LOVEA/DIRENT) whose target
	// exists: the mismatch and double-reference shapes live here.
	for vi := 0; vi < u.N(); vi++ {
		x := uint32(vi)
		if !u.Present[x] {
			continue
		}
		s, e := b.Fwd.EdgeRange(x)
		for i := s; i < e; i++ {
			if b.FwdPaired[i] == 1 {
				continue
			}
			y := b.Fwd.Targets[i]
			kind := graph.KindGeneric
			if b.Fwd.Kinds != nil {
				kind = b.Fwd.Kinds[i]
			}
			if (kind != graph.KindLOVEA && kind != graph.KindDirent) ||
				!u.Present[y] || explained[[2]uint32{x, y}] {
				continue
			}
			back := kind.Counterpart()
			// (a) Misdirected point-back: y's counterpart property names
			// a phantom that only y references — y's point-back is
			// corrupt; restore it from x (Table I mismatch, "b's
			// property is wrong").
			if p, ok := privatePhantomTarget(u, b, y, back); ok && !consumedPhantom[p] {
				consumedPhantom[p] = true
				explained[[2]uint32{x, y}] = true
				findings = append(findings, Finding{
					Kind: FaultyProperty, FID: u.FID(y), Field: core.FieldProperty,
					Score:  res.Rank.PropRank[y],
					Detail: fmt.Sprintf("%v misdirected at nonexistent %v", back, u.FID(p)),
					Repairs: []RepairAction{{
						// Drop the misdirected pointer first, then
						// rebuild it from the unanswered claimer.
						Op: core.RepairDropPointer, TargetFID: u.FID(y),
						SourceFID: u.FID(p), Kind: back,
					}, {
						Op: core.RepairSetProperty, TargetFID: u.FID(y),
						SourceFID: u.FID(x), Kind: back,
					}},
				})
				continue
			}
			// (b) Double reference: y already has a consistent owner
			// other than x, so x's pointer is bogus. If an unreferenced
			// object points at x unanswered, x most likely meant that
			// object — relink; otherwise just drop the claim.
			if hasPairedBackEdge(b, y, x, back) {
				explained[[2]uint32{x, y}] = true
				f := Finding{
					Kind: FaultyProperty, FID: u.FID(x), Field: core.FieldProperty,
					Score:  res.Rank.PropRank[x],
					Detail: fmt.Sprintf("duplicate %v claim on %v (already owned)", kind, u.FID(y)),
					Repairs: []RepairAction{{
						Op: core.RepairDropPointer, TargetFID: u.FID(x),
						SourceFID: u.FID(y), Kind: kind,
					}},
				}
				if w, ok := unansweredBackEdge(u, b, x, back); ok {
					f.Repairs = append(f.Repairs, RepairAction{
						Op: core.RepairSetProperty, TargetFID: u.FID(x),
						SourceFID: u.FID(w), Kind: kind,
					})
					f.Detail += fmt.Sprintf("; unreferenced %v is the likely intended target", u.FID(w))
					explained[[2]uint32{w, x}] = true
				}
				findings = append(findings, f)
			}
		}
	}

	// ---- 3. phantoms not explained above -------------------------------
	for _, p := range u.Phantoms() {
		if consumedPhantom[p] {
			continue
		}
		s, e := b.Rev.EdgeRange(p)
		for i := s; i < e; i++ {
			src := b.Rev.Targets[i]
			if !u.Present[src] || explained[[2]uint32{src, p}] {
				continue
			}
			if u.ClaimCount(src) > 1 {
				// The source FID is claimed by multiple inodes; the
				// duplicate-identity arbitration quarantines the bogus
				// claimants (including their stale point-backs).
				continue
			}
			kind := graph.KindGeneric
			if b.Rev.Kinds != nil {
				kind = b.Rev.Kinds[i]
			}
			switch kind {
			case graph.KindFilterFID:
				findings = append(findings, Finding{
					Kind: StaleObject, FID: u.FID(src),
					Detail: fmt.Sprintf("object's owner %v does not exist", u.FID(p)),
					Repairs: []RepairAction{{
						Op: core.RepairQuarantine, TargetFID: u.FID(src),
						SourceFID: u.FID(p), Kind: graph.KindFilterFID,
					}},
				})
			case graph.KindLinkEA:
				findings = append(findings, Finding{
					Kind: StaleObject, FID: u.FID(src),
					Detail: fmt.Sprintf("parent directory %v does not exist", u.FID(p)),
					Repairs: []RepairAction{{
						Op: core.RepairQuarantine, TargetFID: u.FID(src),
						SourceFID: u.FID(p), Kind: graph.KindLinkEA,
					}},
				})
			case graph.KindDirent, graph.KindLOVEA:
				if res.Report.Suspected(src, core.FieldProperty) {
					continue // the source's property is already being rebuilt
				}
				findings = append(findings, Finding{
					Kind: Ambiguous, FID: u.FID(src),
					Detail: fmt.Sprintf("%v pointer to nonexistent %v", kind, u.FID(p)),
					Repairs: []RepairAction{{
						Op: core.RepairDropPointer, TargetFID: u.FID(src),
						SourceFID: u.FID(p), Kind: kind,
					}},
				})
			}
		}
	}

	// ---- 4. duplicate identity claims ----------------------------------
	for _, g := range u.DuplicateClaims() {
		fid := u.FID(g)
		legit, impostors := arbitrateClaims(res, images, g)
		f := Finding{
			Kind: DuplicateIdentity, FID: fid,
			Detail: fmt.Sprintf("%d inodes claim %v", u.ClaimCount(g), fid),
		}
		for _, imp := range impostors {
			f.Repairs = append(f.Repairs, RepairAction{
				Op: core.RepairQuarantine, TargetFID: fid, Loc: imp,
			})
		}
		if legit != nil {
			f.Detail += fmt.Sprintf("; consistent claim at %s/%d", legit.Server, legit.Ino)
		}
		findings = append(findings, f)
	}

	// ---- 5. fully disconnected present objects -------------------------
	for g := 0; g < u.N(); g++ {
		gi := uint32(g)
		if !u.Present[gi] || u.FID(gi) == lustre.RootFID {
			continue
		}
		if b.InDegree(gi) == 0 && b.OutDegree(gi) == 0 {
			findings = append(findings, Finding{
				Kind: OrphanObject, FID: u.FID(gi),
				Detail: "object participates in no relation",
				Repairs: []RepairAction{{
					Op: core.RepairQuarantine, TargetFID: u.FID(gi),
				}},
			})
		}
	}

	// ---- 6. scanner-level parse damage ----------------------------------
	for _, issue := range u.Issues {
		findings = append(findings, Finding{Kind: ParseDamage, Detail: issue})
	}

	// ---- 7. remaining ambiguous relations -------------------------------
	for _, rel := range res.Report.Ambiguous {
		if !u.Present[rel.To] || explained[[2]uint32{rel.From, rel.To}] {
			continue
		}
		findings = append(findings, Finding{
			Kind: Ambiguous, FID: u.FID(rel.From),
			Detail: fmt.Sprintf("unpaired %v relation %v -> %v needs user input",
				rel.Kind, u.FID(rel.From), u.FID(rel.To)),
		})
	}

	// ---- 8. reachability: coherently detached namespace islands --------
	findings = classifyDetachedIslands(res, findings)

	// ---- 9. optional split-property pass --------------------------------
	if opt.SplitProperties {
		findings = classifySplitPlanes(res, findings, opt)
	}

	// Blast radius: every finding that names a graph vertex carries the
	// relation count of that vertex, the severity rules' size input.
	for i := range findings {
		if g, ok := u.GID(findings[i].FID); ok {
			findings[i].Blast = b.InDegree(g) + b.OutDegree(g)
		}
	}

	sortFindings(findings)
	return findings
}

// classifySplitPlanes folds in per-plane rank attribution (§VIII
// extension): faults the merged rank dilutes away — one plane corrupted
// while the other props the blended score up — surface here. Only
// findings on vertices/fields nothing else flagged are added.
func classifySplitPlanes(res *Result, findings []Finding, opt Options) []Finding {
	u := res.Unified
	sr := core.RunSplit(u.N(), u.Edges, opt.Core)
	rep := core.DetectSplit(sr, u.Present, opt.Core)

	type key struct {
		fid   lustre.FID
		field core.Field
	}
	have := make(map[key]bool)
	for _, f := range findings {
		have[key{f.FID, f.Field}] = true
	}
	added := make(map[key]*Finding)
	for _, s := range rep.Suspects {
		fid := u.FID(s.Vertex)
		k := key{fid, s.Field}
		if have[k] || added[k] != nil {
			continue
		}
		f := &Finding{
			Kind: FaultyProperty, FID: fid, Field: s.Field, Score: s.Score,
			Detail: fmt.Sprintf("%v-plane rank %.3f below threshold (split-property pass)",
				s.Class, s.Score),
		}
		if s.Field == core.FieldID {
			f.Kind = FaultyID
		}
		added[k] = f
	}
	if len(added) == 0 {
		return findings
	}
	for _, r := range rep.Repairs {
		fid := u.FID(r.Target)
		var field core.Field
		switch r.Op {
		case core.RepairSetProperty, core.RepairDropPointer:
			field = core.FieldProperty
		default:
			field = core.FieldID
		}
		f := added[key{fid, field}]
		if f == nil {
			continue
		}
		f.Repairs = append(f.Repairs, RepairAction{
			Op: r.Op, TargetFID: fid, SourceFID: u.FID(r.Source), Kind: r.Kind,
		})
	}
	for _, f := range added {
		findings = append(findings, *f)
	}
	return findings
}

// matchPhantomIdentity finds the phantom FID that is the true identity
// of a mis-identified object v: the vertices with which v has unpaired
// relations still reference the old identity, so the phantom those peers
// point at most often — every edge counts; ties go to the lowest GID — is
// the original FID. The count is made from the peers' forward rows, so it
// costs what v's neighbourhood holds, not the number of phantoms.
func matchPhantomIdentity(u *agg.Unified, b *graph.Bidirected, v uint32) (uint32, bool) {
	peers := append(b.UnpairedOut(v), b.UnpairedIncoming(v)...)
	slices.Sort(peers)
	var named []uint32 // a phantom once per peer edge that points at it
	for _, w := range slices.Compact(peers) {
		for _, t := range b.Fwd.Neighbors(w) {
			if !u.Present[t] {
				named = append(named, t)
			}
		}
	}
	slices.Sort(named)
	best, bestOverlap := uint32(0), 0
	for lo := 0; lo < len(named); {
		hi := lo + 1
		for hi < len(named) && named[hi] == named[lo] {
			hi++
		}
		if hi-lo > bestOverlap {
			best, bestOverlap = named[lo], hi-lo
		}
		lo = hi
	}
	return best, bestOverlap > 0
}

// ownerLostPointer checks whether unsupported-identity vertex v points
// back (via LinkEA/filter-fid) at a present owner that simply lost its
// forward entry: the owner must have no unpaired forward pointer of the
// counterpart kind (no dangling alternative) for the inference to hold.
func ownerLostPointer(u *agg.Unified, b *graph.Bidirected, v uint32) (uint32, graph.EdgeKind, bool) {
	s, e := b.Fwd.EdgeRange(v)
	for i := s; i < e; i++ {
		if b.FwdPaired[i] == 1 {
			continue
		}
		kind := graph.KindGeneric
		if b.Fwd.Kinds != nil {
			kind = b.Fwd.Kinds[i]
		}
		if kind != graph.KindFilterFID && kind != graph.KindLinkEA {
			continue
		}
		owner := b.Fwd.Targets[i]
		if !u.Present[owner] {
			continue
		}
		// Does the owner have a dangling forward pointer of the
		// counterpart kind? Then the dangling/identity explanation wins.
		dangling := false
		os, oe := b.Fwd.EdgeRange(owner)
		for j := os; j < oe; j++ {
			if b.FwdPaired[j] == 1 {
				continue
			}
			k := graph.KindGeneric
			if b.Fwd.Kinds != nil {
				k = b.Fwd.Kinds[j]
			}
			if k == kind.Counterpart() && !u.Present[b.Fwd.Targets[j]] {
				dangling = true
				break
			}
		}
		if !dangling {
			return owner, kind, true
		}
	}
	return 0, graph.KindGeneric, false
}

// privatePhantomTarget reports whether y's `back`-kind pointer names a
// phantom referenced by nobody else.
func privatePhantomTarget(u *agg.Unified, b *graph.Bidirected, y uint32, back graph.EdgeKind) (uint32, bool) {
	s, e := b.Fwd.EdgeRange(y)
	for i := s; i < e; i++ {
		kind := graph.KindGeneric
		if b.Fwd.Kinds != nil {
			kind = b.Fwd.Kinds[i]
		}
		if kind != back {
			continue
		}
		t := b.Fwd.Targets[i]
		if !u.Present[t] && b.InDegree(t) == 1 {
			return t, true
		}
	}
	return 0, false
}

// hasPairedBackEdge reports whether y has a paired `back`-kind pointer
// to some vertex other than x (a consistent owner that is not x).
func hasPairedBackEdge(b *graph.Bidirected, y, x uint32, back graph.EdgeKind) bool {
	s, e := b.Fwd.EdgeRange(y)
	for i := s; i < e; i++ {
		if b.FwdPaired[i] != 1 || b.Fwd.Targets[i] == x {
			continue
		}
		kind := graph.KindGeneric
		if b.Fwd.Kinds != nil {
			kind = b.Fwd.Kinds[i]
		}
		if kind == back {
			return true
		}
	}
	return false
}

// unansweredBackEdge finds a present vertex w whose `back`-kind pointer
// at x is unanswered — the natural adoptee for x's bogus claim.
func unansweredBackEdge(u *agg.Unified, b *graph.Bidirected, x uint32, back graph.EdgeKind) (uint32, bool) {
	s, e := b.Rev.EdgeRange(x)
	for i := s; i < e; i++ {
		if b.RevPaired[i] == 1 {
			continue
		}
		kind := graph.KindGeneric
		if b.Rev.Kinds != nil {
			kind = b.Rev.Kinds[i]
		}
		if kind != back {
			continue
		}
		w := b.Rev.Targets[i]
		if u.Present[w] {
			return w, true
		}
	}
	return 0, false
}

// arbitrateClaims decides, among multiple physical inodes claiming one
// FID, which one's own point-back metadata is answered by the rest of
// the file system: each claim's inode is re-read from its image, its
// point-back targets are resolved, and the claim whose targets point
// back at this FID wins. Claims without a reciprocated point-back are
// impostors.
func arbitrateClaims(res *Result, images map[string]*ldiskfs.Image, g uint32) (*agg.ObjectLoc, []agg.ObjectLoc) {
	u := res.Unified
	var legit *agg.ObjectLoc
	var impostors []agg.ObjectLoc
	for i := range u.ClaimCount(g) {
		claim := u.Claim(g, i)
		answered := false
		if img := images[claim.Server]; img != nil {
			for _, target := range pointBackTargets(img, claim.Ino) {
				if tg, ok := u.GID(target); ok && res.Graph.Fwd.HasEdge(tg, g) {
					answered = true
					break
				}
			}
		}
		if answered && legit == nil {
			legit = &claim
		} else {
			impostors = append(impostors, claim)
		}
	}
	return legit, impostors
}

// pointBackTargets reads the FIDs an inode's point-back metadata names:
// the filter-fid owner for OST objects and LinkEA parents for MDT
// files/directories.
func pointBackTargets(img *ldiskfs.Image, ino ldiskfs.Ino) []lustre.FID {
	var out []lustre.FID
	if raw, ok, err := img.GetXattr(ino, lustre.XattrFilterFID); err == nil && ok {
		if ff, err := lustre.DecodeFilterFID(raw); err == nil {
			out = append(out, ff.ParentFID)
		}
	}
	if raw, ok, err := img.GetXattr(ino, lustre.XattrLink); err == nil && ok {
		if links, err := lustre.DecodeLinkEA(raw); err == nil {
			for _, l := range links {
				out = append(out, l.Parent)
			}
		}
	}
	return out
}
