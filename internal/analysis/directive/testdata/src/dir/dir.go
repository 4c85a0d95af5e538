// Package dir is the directive corpus: known verbs pass silently,
// unknown verbs are flagged so a typo cannot disable a check.
package dir

//simlint:deterministic

// Known directives on a function are fine.
//
//simlint:noalloc
func hot() {}

// A typo'd verb must be flagged, not silently ignored.
//
//simlint:noaloc // want "unknown simlint directive //simlint:noaloc"
func typo() {}

// A removed or invented verb is flagged too.
//
//simlint:threadsafe sounds plausible // want "unknown simlint directive //simlint:threadsafe"
func invented() {}

// A retired verb left behind by deleted code is flagged like any other
// unknown verb.
//
//simlint:shardsafe // want "unknown simlint directive //simlint:shardsafe"
func stale() {}

type fields struct {
	//simlint:ckptskip known verb, no diagnostic
	a int
	//simlint:ckptskp missing letter // want "unknown simlint directive //simlint:ckptskp"
	b int
}

var _ = fields{}
