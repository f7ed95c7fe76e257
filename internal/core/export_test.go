package core

// CutSafe reports whether the splitter passes the right-cut and EOF rules
// of IsLocal (locality.go) on their own, so tests can pin that half of the
// procedure apart from the left-cut pair walk.
func (s *Splitter) CutSafe() bool { return s.CutStates() > 0 }

// SyncBytes returns the bytes on which the cut finder's K states all step
// to one state: the one-byte synchronizing words of the splitter's scanner.
func (s *Splitter) SyncBytes() []byte {
	f, ok := s.NewCutFinder()
	if !ok {
		return nil
	}
	var out []byte
	for b := 0; b < 256; b++ {
		c, synced := f.sc.classOf[b], true
		for _, q := range f.reach {
			synced = synced && f.st[q].Trans(c) == f.st[f.reach[0]].Trans(c)
		}
		if synced {
			out = append(out, byte(b))
		}
	}
	return out
}

// RandomUnaryFormula lets the external tests draw the formulas the
// differential tests of this package draw.
var RandomUnaryFormula = randomUnaryFormula
