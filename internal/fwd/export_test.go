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
