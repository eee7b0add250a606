"""Text substrate: tokenisation, vocabulary, posting-list merges, signatures."""

from .inverted import intersect_sorted, union_sorted
from .signatures import (
    DEFAULT_HASHES,
    DEFAULT_SIGNATURE_BITS,
    SignatureScheme,
)
from .tokenizer import STOP_WORDS, join_keywords, keyword_set, tokenize
from .vocabulary import Vocabulary

__all__ = [
    "DEFAULT_HASHES",
    "DEFAULT_SIGNATURE_BITS",
    "STOP_WORDS",
    "SignatureScheme",
    "Vocabulary",
    "intersect_sorted",
    "union_sorted",
    "join_keywords",
    "keyword_set",
    "tokenize",
]
