// Package edgefix exercises suppression edge cases: duplicate coverage by a
// file-wide and a same-line allow (both count as used), unknown and
// justification-less directives, an allow naming no analyzer of the suite,
// and a stale allow.
//
//fluxvet:allow wallclock fixture-wide: this file stands in for a real-time harness where wall-clock reads are legitimate
package edgefix

import "time"

// doubleCovered is suppressed twice over — by the file-wide allow above the
// package clause and by the same-line allow here. Both must be marked used:
// neither may be reported stale.
func doubleCovered() time.Time {
	return time.Now() //fluxvet:allow wallclock fixture: same-line duplicate of the file-wide allow
}

var _ = doubleCovered

// want `unknown fluxvet directive \(expected //fluxvet:allow or //fluxvet:unordered\)`
//fluxvet:nonsense this directive does not exist

// want `suppression names unknown analyzer "walclock"`
//fluxvet:allow walclock fixture: a typo'd analyzer name silences nothing and must not pass quietly

// want `suppression needs an analyzer name and a written justification`
//fluxvet:allow maporder

// The analyzer name below is real and running, but nothing on the next
// line triggers it, so the allow is stale.
//
// want `stale suppression: no maporder finding here to silence`
//
//fluxvet:allow maporder fixture: planted stale allow — there is no map iteration here
var unrelated = 1

var _ = unrelated
