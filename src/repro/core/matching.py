"""String matching for address-suggestion resolution.

When a BAT cannot verify an input address it offers a list of suggestions;
BQT "appl[ies] string-matching over each suggested address in this list to
find the one that best matches the input street address", then sanity-checks
that the selected suggestion keeps the queried ZIP code (Section 3.3).

The scorer combines token-level and character-level similarity after USPS
normalization, so abbreviation variants score ~1.0 while genuinely
different streets score low.  Implemented from scratch (no external fuzzy-
matching dependency): Levenshtein via the classic two-row DP.
"""

from __future__ import annotations

from typing import Callable

from ..addresses.normalize import normalize_street_line, normalize_zip

__all__ = [
    "levenshtein",
    "string_similarity",
    "token_similarity",
    "address_similarity",
    "best_suggestion",
    "DEFAULT_ACCEPT_THRESHOLD",
]

# Minimum combined similarity for a suggestion to be accepted.  Below this,
# BQT treats the query as unresolvable rather than risk recording plans for
# the wrong home.
DEFAULT_ACCEPT_THRESHOLD = 0.62


def levenshtein(a: str, b: str) -> int:
    """Edit distance between two strings (two-row dynamic program).

    >>> levenshtein("magnolia", "magnola")
    1
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            replace_cost = previous[j - 1] + (char_a != char_b)
            current.append(min(insert_cost, delete_cost, replace_cost))
        previous = current
    return previous[-1]


def string_similarity(a: str, b: str) -> float:
    """Character-level similarity in [0, 1] from edit distance."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest


def token_similarity(a: str, b: str) -> float:
    """Jaccard similarity of the token sets of two street lines."""
    tokens_a = set(a.split())
    tokens_b = set(b.split())
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)


def _number_and_street(normalized: str) -> tuple[str, str]:
    """Split a normalized street line into (house number, the other tokens).

    The number is the leading all-digit token, or "" when there is none.
    """
    tokens = normalized.split()
    number = tokens[0] if tokens and tokens[0].isdigit() else ""
    return number, " ".join(t for t in tokens if t != number)


def _similarity_to(query_line: str) -> Callable[[str], float]:
    """:func:`address_similarity` against one query, as a function.

    The query is normalized once, and each distinct candidate street is
    scored once per scorer: suggestion lists repeat a street across
    house numbers and units.
    """
    query = normalize_street_line(query_line)
    query_number, query_street = _number_and_street(query)
    street_scores: dict[str, float] = {}

    def similarity(candidate_line: str) -> float:
        candidate = normalize_street_line(candidate_line)
        if query == candidate:
            return 1.0
        candidate_number, candidate_street = _number_and_street(candidate)
        number_score = 1.0 if query_number == candidate_number else 0.0
        street_score = street_scores.get(candidate_street)
        if street_score is None:
            street_score = 0.5 * string_similarity(query_street, candidate_street) + 0.5 * (
                token_similarity(query_street, candidate_street)
            )
            street_scores[candidate_street] = street_score
        return 0.35 * number_score + 0.65 * street_score

    return similarity


def address_similarity(query_line: str, candidate_line: str) -> float:
    """Combined similarity of two street lines after normalization.

    The house number is weighted separately: a suggestion with a different
    house number is a different home even if the street matches exactly.
    """
    return _similarity_to(query_line)(candidate_line)


def best_suggestion(
    query_line: str,
    query_zip: str,
    suggestions: list[tuple[str, str]],
    threshold: float = DEFAULT_ACCEPT_THRESHOLD,
) -> int | None:
    """Pick the best suggestion index, or None if nothing is acceptable.

    Suggestions whose ZIP differs from the queried ZIP are discarded before
    scoring (the paper's sanity check: "we ensure that the selected street
    addresses have the same zip code as our initially queried address").
    """
    query_zip5 = normalize_zip(query_zip)
    similarity = _similarity_to(query_line)
    best_index: int | None = None
    best_score = threshold
    for index, (line, zip_code) in enumerate(suggestions):
        if normalize_zip(zip_code) != query_zip5:
            continue
        score = similarity(line)
        if score > best_score:
            best_score = score
            best_index = index
    return best_index
