package fwd

// RelayedSends returns the transfers node sent on the special channels:
// every wire transfer it addressed to a gateway that relays it further.
func (vc *VirtualChannel) RelayedSends(node string) int64 {
	var n int64
	for _, ch := range vc.special {
		n += ch.SendsFrom(vc.NodeRank(node))
	}
	return n
}

// FrameWindow reports the coalescer of node toward dst: how many of the
// pair's numbered messages are in flight, and its window.
func (vc *VirtualChannel) FrameWindow(node, dst string) (inflight, window int) {
	c := vc.coalescerOf(node, dst)
	if c == nil {
		return 0, 0
	}
	return int(c.inflight()), int(c.window)
}

// SinkHeld returns how many complete messages of origin the sink node holds
// back until those before them in the pair's sequence complete.
func (vc *VirtualChannel) SinkHeld(node, origin string) (n int) {
	if w := vc.rel[node].done[vc.NodeRank(origin)]; w != nil {
		for _, h := range w.held {
			if h != nil {
				n++
			}
		}
	}
	return n
}
