"""Merchant trust scoring.

The arbiter keeps one counter pair per merchant: how many of that merchant's
transactions reached a customer verdict, and how many of those verdicts were
rejections.  The trust value is the rejection percentage; the trust factor
is its complement, and the factor maps onto a ten-step letter grade.

All arithmetic is exact rational (fractions.Fraction).  Floats never enter
the computation; values are rendered to two decimal places only at the
reporting edge.

A merchant that repeatedly disappoints the same customer on the same product
is penalized super-linearly: once that (customer, product) pair has been
rejected more than once, the merchant's trust value is squared (capped at
100, so the factor floors at 0).  The penalty is permanent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction


class ZeroTransactions(Exception):
    """Trust is undefined for a merchant with no completed verdicts."""


class Disposition(IntEnum):
    ACCEPTED = 0
    REJECTED = 1


class Grade(IntEnum):
    """Letter grades over trust-factor decades.

    Each grade covers one ten-point band of the trust factor; the band
    boundary belongs to the higher grade, and a perfect 100 is A1.
    Higher enum value = more trustworthy, so grades compare naturally.
    """

    E2 = 0
    E1 = 1
    D2 = 2
    D1 = 3
    C2 = 4
    C1 = 5
    B2 = 6
    B1 = 7
    A2 = 8
    A1 = 9


@dataclass
class TrustRecord:
    """Per-merchant counters.

    total counts disposition events (every accept or reject verdict, so a
    reject followed by an accepted replacement contributes two).  repeats
    maps (customer, product) to its rejection count; the squaring penalty
    latches on once any pair exceeds one rejection.
    """

    total: int = 0
    rejected: int = 0
    repeats: dict[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self):
        if self.total < 0 or self.rejected < 0:
            raise ValueError("counters must be non-negative")
        if self.rejected > self.total:
            raise ValueError("rejected cannot exceed total")

    @property
    def repeat_offender(self) -> bool:
        return any(n > 1 for n in self.repeats.values())


def record_outcome(record: TrustRecord, disposition: Disposition,
                   customer: str, product: str) -> None:
    """Fold one verdict into the record.  Must be called exactly once per
    disposition event; the caller serializes calls per merchant."""
    record.total += 1
    if disposition is Disposition.REJECTED:
        record.rejected += 1
        key = (customer, product)
        record.repeats[key] = record.repeats.get(key, 0) + 1


def trust_value(record: TrustRecord) -> Fraction:
    """Rejection percentage in [0, 100], squared (and capped at 100) for
    repeat offenders.  Raises ZeroTransactions when no verdict exists."""
    if record.total == 0:
        raise ZeroTransactions("no verdicts recorded for merchant")
    tv = Fraction(record.rejected, record.total) * 100
    if record.repeat_offender:
        tv = min(tv * tv, Fraction(100))
    return tv


def trust_factor(tv: Fraction) -> Fraction:
    """Complement of the trust value; exact, in [0, 100]."""
    if not 0 <= tv <= 100:
        raise ValueError("trust value must lie in [0, 100]")
    return Fraction(100) - tv


def grade(tf: Fraction | int) -> Grade:
    """Map a trust factor onto its letter grade.

    Bands are half-open decades with the boundary in the higher grade:
    [90, 100] -> A1, [80, 90) -> A2, ... [10, 20) -> E1, [0, 10) -> E2.
    """
    num, den = tf.numerator, tf.denominator     # den > 0, also for an int
    if not 0 <= num <= 100 * den:
        raise ValueError("trust factor must lie in [0, 100]")
    return Grade(min(num // (10 * den), 9))


def format_pct(value: Fraction) -> str:
    """Render an exact percentage to two decimals, round half up."""
    scaled = value * 100
    q, rem = divmod(scaled.numerator, scaled.denominator)
    if rem * 2 >= scaled.denominator:
        q += 1
    return f"{q // 100}.{q % 100:02d}"


def merchant_standing(record: TrustRecord) -> dict:
    """Reportable snapshot: exact strings, never floats."""
    tv = trust_value(record)
    tf = trust_factor(tv)
    return {
        "total": record.total,
        "rejected": record.rejected,
        "trust_value": format_pct(tv),
        "trust_factor": format_pct(tf),
        "grade": grade(tf).name,
        "repeat_offender": record.repeat_offender,
    }


def render_table(records: dict[str, TrustRecord]) -> str:
    """Fixed-width trust table, one merchant per line, stable order."""
    lines = [f"{'merchant':<10} {'total':>7} {'rejected':>8} "
             f"{'tv':>8} {'tf':>8} grade"]
    for merchant in sorted(records):
        rec = records[merchant]
        if rec.total == 0:
            lines.append(f"{merchant:<10} {rec.total:>7} {rec.rejected:>8} "
                         f"{'-':>8} {'-':>8} unrated")
            continue
        s = merchant_standing(rec)
        lines.append(f"{merchant:<10} {s['total']:>7} {s['rejected']:>8} "
                     f"{s['trust_value']:>8} {s['trust_factor']:>8} {s['grade']}")
    return "\n".join(lines) + "\n"
