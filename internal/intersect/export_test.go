package intersect

// EachBody exposes eachBody to the external tests in this directory.
var EachBody = eachBody
