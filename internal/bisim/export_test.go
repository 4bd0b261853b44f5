package bisim

// SetMaskDegreeBlockLimit is a test hook: it lets the external test package
// force the generic degree path and returns the previous limit.
func SetMaskDegreeBlockLimit(v int) int {
	old := maskDegreeBlockLimit
	maskDegreeBlockLimit = v
	return old
}

// SetPackedLeftLimit is a test hook: lowering the limit to zero makes the
// packed degree pass step aside, so the external test package can force
// maskedFinish on any input.  It returns the previous limit.
func SetPackedLeftLimit(v int) int {
	old := packedLeftLimit
	packedLeftLimit = v
	return old
}
