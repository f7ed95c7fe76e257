package core

// CutSafe reports whether the splitter passes the right-cut and EOF rules
// of IsLocal (locality.go) on their own, so tests can pin that half of the
// procedure apart from the left-cut pair walk.
func (s *Splitter) CutSafe() bool {
	sc := s.scanner()
	if sc == nil {
		return false
	}
	reach, err := sc.rightCut(1 << 14)
	return err == nil && reach != nil
}

// RandomUnaryFormula lets the external tests draw the formulas the
// differential tests of this package draw.
var RandomUnaryFormula = randomUnaryFormula
