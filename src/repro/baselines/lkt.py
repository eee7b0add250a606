"""LkT / IR-tree baseline [Cong, Jensen, Wu — VLDB 2009].

An R-tree where every node carries an *inverted file*: for each keyword,
the set of child entries whose subtree contains it.  A child is followed
only when every query keyword lists it — exact containment pruning at
entry granularity (unlike signatures there are no hash false positives,
but a subtree containing all keywords spread over different POIs is still
a false positive for conjunctive matching).

The original LkT ranks by a mix of spatial and textual relevance; the
paper's evaluation (and ours) uses it for boolean containment + distance
ranking, extended with the same direction check as the other baselines.
The per-node inverted files dominate the index size — reproducing Table
III's observation that LkT's index is by far the largest.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from ..rtree import Node
from .base import BaselineIndex


class IRTree(BaselineIndex):
    """R-tree + per-node inverted files (the LkT index)."""

    name = "LkT"

    def _build_summaries(self) -> None:
        #: node_id -> term_id -> bitmask of child entry positions.
        self._node_inverted: Dict[int, Dict[int, int]] = {}
        #: node_id -> total subtree postings (for the size model below).
        self._node_postings: Dict[int, int] = {}
        self._build_node(self.tree.root)

    def _build_node(self, node: Node) -> FrozenSet[int]:
        """Build this node's inverted file; returns its subtree term set."""
        inverted: Dict[int, int] = {}
        postings = 0
        for idx, entry in enumerate(node.entries):
            if node.is_leaf:
                child_terms = self.collection.term_id_sets[entry.child]
                postings += len(child_terms)
            else:
                child_terms = self._build_node(entry.child)
                postings += self._node_postings[entry.child.node_id]
            bit = 1 << idx
            for term_id in child_terms:
                inverted[term_id] = inverted.get(term_id, 0) | bit
        self._node_inverted[node.node_id] = inverted
        self._node_postings[node.node_id] = postings
        return frozenset(inverted)

    def entry_allowed(self, node: Node, entry_index: int,
                      query_terms: FrozenSet[int],
                      match_all: bool = True) -> bool:
        inverted = self._node_inverted[node.node_id]
        bit = 1 << entry_index
        if match_all:
            for term_id in query_terms:
                postings = inverted.get(term_id)
                if postings is None or not postings & bit:
                    return False
            return True
        return any(inverted.get(term_id, 0) & bit
                   for term_id in query_terms)

    @property
    def summary_size_bytes(self) -> int:
        """Inverted-file footprint as the real IR-tree pays it.

        Each node's inverted file indexes the *objects of its whole
        subtree* (term -> posting list of object ids with weights), so
        every term occurrence is stored once per tree level above it: ~12 B
        per (object, weight) posting plus ~16 B per distinct-term directory
        entry per node.  That per-level replication is why Table III
        reports LkT's index an order of magnitude above the others; at our
        scaled-down tree heights the amplification factor is smaller (see
        EXPERIMENTS.md).
        """
        total = 0
        for node_id, inverted in self._node_inverted.items():
            total += 16 * len(inverted) + 12 * self._node_postings[node_id]
        return total
