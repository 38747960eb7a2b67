"""Graph algorithms backing the BlockSolve format (paper Sec. 1, Fig. 2).

The BlockSolve library exploits structure of PDE stiffness matrices with
multiple degrees of freedom per discretization point.  Graphs are CSR
arrays ``(ptr, idx)`` and vertex partitions ``(gptr, members)``:

* *i-nodes* — groups of rows with identical column structure, found by
  hashing, sorting and an exact check
  (:func:`~repro.graphs.inodes.find_inodes`),
* *cliques* — mutually adjacent vertex groups; each grid point's dof rows
  form one (:func:`~repro.graphs.cliques.clique_partition`),
* the *contracted graph* induced by the cliques is greedily colored
  (:func:`~repro.graphs.coloring.greedy_color`), and the matrix reordered
  color-by-color so each color's diagonal blocks are independent.
"""

from repro.graphs.adjacency import adjacency_csr, contracted_graph
from repro.graphs.inodes import find_inodes
from repro.graphs.cliques import clique_partition
from repro.graphs.coloring import greedy_color

__all__ = [
    "adjacency_csr",
    "contracted_graph",
    "find_inodes",
    "clique_partition",
    "greedy_color",
]
