// Package directives is a greenlint golden-file fixture for the
// suppression machinery itself.
package directives

import "time"

func allowedAbove() time.Time {
	//greenlint:allow wallclock suppressed by a directive on the line above
	return time.Now()
}

func allowedSameLine() time.Time {
	return time.Now() //greenlint:allow wallclock suppressed by a same-line directive
}

func wrongCheckDoesNotSuppress() time.Time {
	//greenlint:allow wraperr a directive for another check must not suppress wallclock // want "\\[unusedallow\\] //greenlint:allow wraperr suppresses nothing here"
	return time.Now() // want "\\[wallclock\\] call to time\\.Now"
}

func tooFarAway() time.Time {
	//greenlint:allow wallclock a directive two lines up is out of range // want "\\[unusedallow\\] //greenlint:allow wallclock suppresses nothing here"

	return time.Now() // want "\\[wallclock\\] call to time\\.Now"
}

//greenlint:allow nosuchcheck pretend reason // want "\\[directive\\] unknown check \"nosuchcheck\""

//greenlint:allow wallclock // want "\\[directive\\] //greenlint:allow wallclock needs a reason"

//greenlint:deny wallclock because // want "\\[directive\\] unknown greenlint directive \"deny\""

//greenlint:owns a retired verb // want "\\[directive\\] unknown greenlint directive \"owns\""
