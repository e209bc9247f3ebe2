package core

// ArcWords exposes a range's arc words to the external tests.
func ArcWords(r *Range) []int32 { return r.arcs }

// CheckDegree is the arc words' degree guard.
var CheckDegree = checkDegree
