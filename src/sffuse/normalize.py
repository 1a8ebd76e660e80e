"""Answer string normalization shared by reward scoring and the PEM pipeline.

Both the answer-accuracy reward and the pipeline's per-setting correctness
rate compare strings through the same normalizer so a sample counted correct
during annotation is also rewarded at training time.
"""

from __future__ import annotations

# Punctuation stripped from the end of an answer ("collie." == "collie").
# Brackets are kept so "(a)" and "a" stay distinct.
_TERMINAL_PUNCTUATION = ".,;:!?"


def normalize_answer(text: str) -> str:
    """Canonicalize an answer string for exact comparison.

    Pipeline: trim, Unicode case-fold, collapse internal whitespace runs to a
    single space, then strip terminal punctuation.
    """
    result = " ".join(text.strip().casefold().split())
    while result and result[-1] in _TERMINAL_PUNCTUATION:
        result = result[:-1].rstrip()
    return result


def check_gold_answer(text: str, name: str) -> None:
    """Raise ``ValueError("<name> must be nonempty")`` if ``text`` normalizes
    to "": such a gold answer would count every answer that normalizes to ""
    (a blank, a lone ".") as correct."""
    if not normalize_answer(text):
        raise ValueError(f"{name} must be nonempty")


def answers_match(candidate: str, reference: str) -> bool:
    """True iff the two answers are equal after normalization."""
    return normalize_answer(candidate) == normalize_answer(reference)
