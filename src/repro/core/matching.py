"""String matching for address-suggestion resolution.

When a BAT cannot verify an input address it offers a list of suggestions;
BQT "appl[ies] string-matching over each suggested address in this list to
find the one that best matches the input street address", then sanity-checks
that the selected suggestion keeps the queried ZIP code (Section 3.3).

The scorer combines token-level and character-level similarity after USPS
normalization, so abbreviation variants score ~1.0 while genuinely
different streets score low.  Implemented from scratch (no external fuzzy-
matching dependency): Levenshtein as a bit-parallel distance over Python
ints (Myers 1999, in Hyyrö's 2003 formulation).
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
    """Edit distance between two strings (exact, bit-parallel).

    The common prefix and suffix are stripped first: they never add to
    the distance.  Then one bit per character of the longer string
    carries the vertical differences of the DP column, and each
    character of the shorter string advances the whole column with a
    few integer operations.  Python ints are unbounded, so strings
    longer than a machine word need no blocking.

    >>> levenshtein("magnolia", "magnola")
    1
    """
    if a == b:
        return 0
    start = 0
    limit = min(len(a), len(b))
    while start < limit and a[start] == b[start]:
        start += 1
    end = 0
    limit -= start
    while end < limit and a[-1 - end] == b[-1 - end]:
        end += 1
    a = a[start : len(a) - end]
    b = b[start : len(b) - end]
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    # Hyyrö's vectors over the DP column: vp/vn mark +1/-1 vertical
    # differences, hp/hn horizontal ones, d0 zero diagonal ones.
    match: dict[str, int] = {}
    bit = 1
    for char in a:
        match[char] = match.get(char, 0) | bit
        bit <<= 1
    top = bit >> 1
    vp = bit - 1
    vn = 0
    distance = len(a)
    for char in b:
        eq = match.get(char, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & top:
            distance += 1
        elif hn & top:
            distance -= 1
        hp = (hp << 1) | 1
        vp = (hn << 1) | ~(d0 | hp)
        vn = hp & d0
    return distance


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
