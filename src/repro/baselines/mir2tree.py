"""MIR2-tree baseline [Felipe, Hristidis, Rishe — ICDE 2008].

An R-tree where every node carries a fixed-width keyword *signature*: the
bitwise OR of the signatures of all keywords in its subtree.  During the
kNN descent a child is pruned when the query signature is not a subset of
the child's — a test with false positives (hash collisions) but no false
negatives.  The paper compares against the memory-optimised variant
("MIR2-tree"); our reproduction keeps the signature table in a side dict,
which is exactly that variant's behaviour.

Direction extension (paper Sec. VI): children whose MBR cannot overlap the
query sector are pruned too.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from ..datasets import POICollection
from ..rtree import Node
from ..text import SignatureScheme
from .base import BaselineIndex


class MIR2Tree(BaselineIndex):
    """R-tree + per-node keyword signatures."""

    name = "MIR2-tree"

    def __init__(self, collection: POICollection, fanout: int = 50,
                 signature_bits: int = 512, signature_hashes: int = 3,
                 ) -> None:
        self.scheme = SignatureScheme(signature_bits, signature_hashes)
        super().__init__(collection, fanout)

    def _build_summaries(self) -> None:
        self._node_signature: Dict[int, int] = {}
        self._poi_signature: Dict[int, int] = {}
        # Query signatures are recomputed per entry check otherwise; one
        # small memo covers the repeated keyword sets of a workload.
        self._query_sig_cache: Dict[FrozenSet[int], int] = {}
        self._compute_signature(self.tree.root)

    def _compute_signature(self, node: Node) -> int:
        signature = 0
        for entry in node.entries:
            if node.is_leaf:
                poi_sig = self.scheme.signature_of(
                    self.collection.term_id_sets[entry.child])
                self._poi_signature[entry.child] = poi_sig
                signature |= poi_sig
            else:
                signature |= self._compute_signature(entry.child)
        self._node_signature[node.node_id] = signature
        return signature

    def entry_allowed(self, node: Node, entry_index: int,
                      query_terms: FrozenSet[int],
                      match_all: bool = True) -> bool:
        entry = node.entries[entry_index]
        if node.is_leaf:
            child_sig = self._poi_signature[entry.child]
        else:
            child_sig = self._node_signature[entry.child.node_id]
        if match_all:
            query_sig = self._query_sig_cache.get(query_terms)
            if query_sig is None:
                query_sig = self.scheme.signature_of(query_terms)
                self._query_sig_cache[query_terms] = query_sig
            return SignatureScheme.might_contain(child_sig, query_sig)
        # Disjunctive: the subtree may match if any single term's bits are
        # all present.
        return any(
            SignatureScheme.might_contain(
                child_sig, self.scheme.term_signature(term_id))
            for term_id in query_terms)

    @property
    def summary_size_bytes(self) -> int:
        per_sig = self.scheme.bytes_per_signature
        return per_sig * (len(self._node_signature)
                          + len(self._poi_signature))
