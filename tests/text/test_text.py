"""Tests for the text substrate."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text import (
    SignatureScheme,
    Vocabulary,
    intersect_sorted,
    join_keywords,
    keyword_set,
    tokenize,
)


class TestTokenizer:
    def test_lowercases_and_splits(self):
        assert tokenize("Chinese Food") == ["chinese", "food"]

    def test_strips_punctuation(self):
        assert tokenize("Joe's Diner, 24/7!") == ["joe", "s", "diner", "24", "7"]

    def test_drops_stop_words(self):
        assert tokenize("house of pancakes") == ["house", "pancakes"]

    def test_keeps_duplicates_in_order(self):
        assert tokenize("gas gas station") == ["gas", "gas", "station"]

    def test_keyword_set_dedupes(self):
        assert keyword_set("gas gas station") == frozenset({"gas", "station"})

    def test_empty(self):
        assert tokenize("") == []
        assert keyword_set("...") == frozenset()

    def test_join_keywords_sorted(self):
        assert join_keywords({"b", "a"}) == "a b"

    @given(st.text(max_size=100))
    def test_tokens_are_normalised(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert token.isalnum()


class TestVocabulary:
    def test_add_is_idempotent(self):
        v = Vocabulary()
        first = v.add("cafe")
        assert v.add("cafe") == first
        assert len(v) == 1

    def test_round_trip(self):
        v = Vocabulary()
        tid = v.add("atm")
        assert v.term_of(tid) == "atm"
        assert v.id_of("atm") == tid
        assert "atm" in v

    def test_unknown_term(self):
        v = Vocabulary()
        assert v.id_of("nope") is None
        assert "nope" not in v

    def test_doc_frequency(self):
        v = Vocabulary()
        v.add_document(["atm", "bank"])
        v.add_document(["atm"])
        v.add_document(["atm", "atm"])  # duplicates within a doc count once
        assert v.doc_frequency(v.id_of("atm")) == 3
        assert v.doc_frequency(v.id_of("bank")) == 1

    def test_ids_of_all_known(self):
        v = Vocabulary()
        v.add_document(["a", "b"])
        ids = v.ids_of(["a", "b"])
        assert ids == frozenset({v.id_of("a"), v.id_of("b")})

    def test_ids_of_unknown_returns_none(self):
        v = Vocabulary()
        v.add_document(["a"])
        assert v.ids_of(["a", "zzz"]) is None

    def test_most_frequent(self):
        v = Vocabulary()
        for _ in range(5):
            v.add_document(["pizza"])
        for _ in range(2):
            v.add_document(["sushi"])
        v.add_document(["tapas"])
        top = v.most_frequent(2)
        assert v.term_of(top[0]) == "pizza"
        assert v.term_of(top[1]) == "sushi"

    def test_rolled_back_equals_the_prefix_vocabulary(self):
        docs = [["atm", "bank"], ["atm"], ["cafe", "bank"], ["deli"]]
        v, prefix = Vocabulary(), Vocabulary()
        last = [v.add_document(d) for d in docs][2:]
        for d in docs[:2]:
            prefix.add_document(d)
        removed = {}
        for ids in last:
            for term_id in ids:
                removed[term_id] = removed.get(term_id, 0) + 1
        back = v.rolled_back(removed)
        assert back.terms() == prefix.terms() == ["atm", "bank"]
        assert [back.doc_frequency(i) for i in range(len(back))] == [2, 1]
        assert "cafe" not in back and "deli" not in back
        assert len(v) == 4 and v.doc_frequency(v.id_of("bank")) == 2

    @given(st.lists(st.text(min_size=1, max_size=8), max_size=50))
    def test_ids_unique_and_dense(self, terms):
        v = Vocabulary()
        ids = [v.add(t) for t in terms]
        assert sorted(set(ids)) == list(range(len(v)))


class TestIntersectSorted:
    def test_empty_input(self):
        assert intersect_sorted([]) == []

    def test_single_list(self):
        assert intersect_sorted([[1, 3, 5]]) == [1, 3, 5]

    def test_basic(self):
        assert intersect_sorted([[1, 2, 3, 9], [2, 3, 4], [0, 2, 3]]) == [2, 3]

    def test_disjoint(self):
        assert intersect_sorted([[1, 2], [3, 4]]) == []

    def test_one_empty(self):
        assert intersect_sorted([[1, 2], []]) == []

    @given(st.lists(st.sets(st.integers(0, 50)), min_size=1, max_size=5))
    def test_matches_set_intersection(self, sets):
        lists = [sorted(s) for s in sets]
        expect = sorted(set.intersection(*map(set, sets))) if sets else []
        assert intersect_sorted(lists) == expect


class TestSignatures:
    def test_subset_never_false_negative(self):
        scheme = SignatureScheme(bits=128, hashes=3)
        node = scheme.signature_of([1, 2, 3])
        query = scheme.signature_of([2, 3])
        assert scheme.might_contain(node, query)

    def test_definite_miss(self):
        scheme = SignatureScheme(bits=4096, hashes=3)
        node = scheme.signature_of([1])
        query = scheme.signature_of([999])
        # With 4096 bits a collision of all 3 hash bits is vanishingly
        # unlikely for this fixed pair; the test pins the expected behaviour.
        assert not scheme.might_contain(node, query)

    def test_term_signature_deterministic(self):
        scheme = SignatureScheme()
        assert scheme.term_signature(42) == scheme.term_signature(42)

    def test_bits_bounded(self):
        scheme = SignatureScheme(bits=64, hashes=4)
        sig = scheme.signature_of(range(100))
        assert sig < (1 << 64)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            SignatureScheme(bits=0)
        with pytest.raises(ValueError):
            SignatureScheme(hashes=0)

    def test_bytes_per_signature(self):
        assert SignatureScheme(bits=512).bytes_per_signature == 64
        assert SignatureScheme(bits=10).bytes_per_signature == 2

    @given(st.sets(st.integers(0, 10000), max_size=20),
           st.sets(st.integers(0, 10000), max_size=5))
    def test_no_false_negatives_property(self, node_terms, query_terms):
        scheme = SignatureScheme(bits=256, hashes=3)
        node = scheme.signature_of(node_terms)
        query = scheme.signature_of(query_terms)
        if query_terms <= node_terms:
            assert scheme.might_contain(node, query)
