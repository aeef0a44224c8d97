package bench

import (
	"fmt"
	"strings"
)

// ClusterOfClusters returns the configuration of a two-level cluster of c
// clusters of m nodes: cluster i is the SCI network s<i> with nodes n<i>_<j>,
// and its gateway g<i> is also on bb, a Myrinet backbone shared by every
// cluster. It has c·(m+1) nodes, and the set-up cost tests build it large.
func ClusterOfClusters(c, m int) string {
	var sb strings.Builder
	sb.WriteString("network bb myrinet\n")
	for i := 0; i < c; i++ {
		fmt.Fprintf(&sb, "network s%d sci\n", i)
	}
	for i := 0; i < c; i++ {
		fmt.Fprintf(&sb, "node g%d s%d bb\n", i, i)
		for j := 0; j < m; j++ {
			fmt.Fprintf(&sb, "node n%d_%d s%d\n", i, j, i)
		}
	}
	return sb.String()
}
