"""Term dictionary mapping keywords to dense integer ids.

Every index in the library stores term *ids*, not strings: ids make inverted
lists delta-compressible, signatures hashable, and comparisons cheap.  The
vocabulary also tracks document frequency, which the workload generators use
to pick realistic (frequency-skewed) query keywords.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional


class Vocabulary:
    """Bidirectional term <-> id map with document frequencies."""

    def __init__(self) -> None:
        self._term_to_id: Dict[str, int] = {}
        self._id_to_term: List[str] = []
        self._doc_freq: List[int] = []

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: str) -> bool:
        return term in self._term_to_id

    def add(self, term: str) -> int:
        """Intern ``term``; returns its id (existing or new).

        Does *not* bump document frequency — use :meth:`add_document` when
        indexing a POI so each POI counts once per term.
        """
        term_id = self._term_to_id.get(term)
        if term_id is None:
            term_id = len(self._id_to_term)
            self._term_to_id[term] = term_id
            self._id_to_term.append(term)
            self._doc_freq.append(0)
        return term_id

    def add_document(self, terms: Iterable[str]) -> FrozenSet[int]:
        """Intern a POI's keyword set and bump each term's doc frequency.

        Terms are interned in sorted order so id assignment does not depend
        on set-iteration order (i.e., on ``PYTHONHASHSEED``) — term ids
        feed signature hashing, and reproducible runs need stable ids.
        """
        ids = set()
        for term in sorted(set(terms)):
            term_id = self.add(term)
            self._doc_freq[term_id] += 1
            ids.add(term_id)
        return frozenset(ids)

    def rolled_back(self, removed: Mapping[int, int]) -> "Vocabulary":
        """A copy as it stood before the last documents were added.

        ``removed`` counts, per term id, how many of those documents hold
        the term.  Ids follow first occurrence, so the terms only those
        documents held are exactly the highest ids: the copy drops them
        and keeps every other term's id, with ``removed`` subtracted from
        its document frequency.  ``self`` is left as it is.
        """
        doc_freq = list(self._doc_freq)
        for term_id, count in removed.items():
            doc_freq[term_id] -= count
        size = len(doc_freq)
        while size and not doc_freq[size - 1]:
            size -= 1
        out = Vocabulary()
        out._term_to_id = dict(self._term_to_id)
        for term in self._id_to_term[size:]:
            del out._term_to_id[term]
        out._id_to_term = self._id_to_term[:size]
        out._doc_freq = doc_freq[:size]
        return out

    def id_of(self, term: str) -> Optional[int]:
        """The id of ``term``, or ``None`` when unknown."""
        return self._term_to_id.get(term)

    def ids_of(self, terms: Iterable[str]) -> Optional[FrozenSet[int]]:
        """Ids of all ``terms``; ``None`` when any term is unknown.

        An unknown query keyword means the conjunctive query has no answers,
        so callers treat ``None`` as an immediate empty result.
        """
        ids = set()
        for term in terms:
            term_id = self._term_to_id.get(term)
            if term_id is None:
                return None
            ids.add(term_id)
        return frozenset(ids)

    def term_of(self, term_id: int) -> str:
        """The term string for ``term_id``."""
        return self._id_to_term[term_id]

    def doc_frequency(self, term_id: int) -> int:
        """Number of POIs whose keyword set contains the term."""
        return self._doc_freq[term_id]

    def terms(self) -> List[str]:
        """All interned terms in id order (a copy)."""
        return list(self._id_to_term)

    def most_frequent(self, limit: int) -> List[int]:
        """Ids of the ``limit`` highest-document-frequency terms."""
        order = sorted(range(len(self._doc_freq)),
                       key=lambda i: self._doc_freq[i], reverse=True)
        return order[:limit]
