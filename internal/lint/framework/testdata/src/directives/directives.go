// Package directives exercises the framework's suppression machinery via a
// toy analyzer that flags every call to the function named "flagme".
package directives

func flagme() {}

func unsuppressed() {
	flagme() // want `call to flagme`
}

func lineSuppressed() {
	//lint:toy this call is fine
	flagme()
	flagme() //lint:toy same-line directives work too
}

//lint:toy the whole function is exempt
func funcSuppressed() {
	flagme()
	flagme()
}

func bareDirective() {
	//lint:toy
	flagme() // want `call to flagme`
}

// A directive suppresses only the analyzer it names, and one that names no
// analyzer of the run is itself a finding.
func wrongDirective() {
	//lint:nosuch because // want `//lint:nosuch names no analyzer`
	flagme() // want `call to flagme`
}
