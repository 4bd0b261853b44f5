package bisim

// SetMaskDegreeBlockLimit is a test hook: it lets the external test package
// force the generic degree path and returns the previous limit.
func SetMaskDegreeBlockLimit(v int) int {
	old := maskDegreeBlockLimit
	maskDegreeBlockLimit = v
	return old
}
